(* Certificate plumbing for solver verdicts.

   Two halves, deliberately decoupled from the solver:

   - [Check] is an independent RUP proof checker.  It shares no code and no
     state with [Solver]: its own clause store, its own watch lists, its own
     assignment array, its own unit propagation.  It is dumb on purpose —
     the only inference it performs is unit propagation, so a bug in the
     solver's conflict analysis, clause minimization, subsumption or
     reduction machinery cannot also hide here.

   - [t] is a certification session gluing one solver's derivation trace
     (see [Solver.set_trace]) to one checker through a bounded proof
     buffer.  Traced steps accumulate in memory up to a cap, spill to a
     temp file past it, and are drained into the checker — each learnt
     step RUP-verified once, at admission — before any verdict check.
     A spill failure (disk full, injected [alloc.cap]) falls back to
     unbounded in-memory buffering with one logged warning: certification
     degrades in footprint, never in soundness. *)

module Metrics = Dfm_obs.Metrics

exception Check_failed of string

let m_checked =
  Metrics.attributed_counter ~help:"Certificate checks passed (verdict-level)"
    "dfm_cert_checked_total"

let m_failed =
  Metrics.attributed_counter ~help:"Certificate checks failed" "dfm_cert_failed_total"

let m_proof_bytes =
  Metrics.counter ~help:"Proof bytes traced (nominal DRUP encoding)"
    "dfm_cert_proof_bytes_total"

let m_check_ns = Metrics.histogram ~help:"Certificate check duration, ns" "dfm_cert_check_ns"

let m_spill_fallbacks =
  Metrics.counter ~help:"Proof spills that fell back to in-memory buffering"
    "dfm_cert_spill_fallbacks_total"

(* Process-wide totals, mirrored into the metrics registry.  [checked] and
   [failed] count verdict-level checks only (one per certified verdict).
   [check_ns] accumulates only while
   [Metrics.timing_enabled] (bench turns it on); everything else is
   unconditional. *)
let checked_total = Atomic.make 0
let failed_total = Atomic.make 0
let proof_bytes_total = Atomic.make 0
let check_ns_total = Atomic.make 0

type totals = { checked : int; failed : int; proof_bytes : int; check_ns : int }

let totals () =
  {
    checked = Atomic.get checked_total;
    failed = Atomic.get failed_total;
    proof_bytes = Atomic.get proof_bytes_total;
    check_ns = Atomic.get check_ns_total;
  }

let note_check ~ok ~ns =
  if ok then begin
    ignore (Atomic.fetch_and_add checked_total 1);
    Metrics.incr_attr m_checked
  end
  else begin
    ignore (Atomic.fetch_and_add failed_total 1);
    Metrics.incr_attr m_failed
  end;
  if Metrics.timing_enabled () then begin
    ignore (Atomic.fetch_and_add check_ns_total (Int64.to_int ns));
    Metrics.observe m_check_ns (Int64.to_int ns)
  end

let timed f =
  let t0 = Dfm_obs.Clock.now_ns () in
  let r = f () in
  (r, Int64.sub (Dfm_obs.Clock.now_ns ()) t0)

(* ---- the independent checker ---------------------------------------- *)

module Check = struct
  (* Clauses hold external DIMACS literals.  The two watched literals live
     in positions 0 and 1 and are swapped in place, the one scheme shared
     with every watched-literal implementation — but reimplemented here
     from scratch on a different literal encoding. *)
  type cls = { lits : int array }

  type t = {
    mutable assign : int array;        (* var -> -1 unknown / 0 false / 1 true *)
    mutable watches : cls list array;  (* slot of a literal -> watching clauses *)
    mutable trail : int array;
    mutable trail_len : int;           (* permanent prefix unless mid-check *)
    mutable qhead : int;
    mutable originals : cls list;      (* for model checks *)
    mutable n_clauses : int;
    mutable proved_unsat : bool;
    mutable nvars : int;
  }

  let create () =
    {
      assign = Array.make 4 (-1);
      watches = Array.make 8 [];
      trail = Array.make 4 0;
      trail_len = 0;
      qhead = 0;
      originals = [];
      n_clauses = 0;
      proved_unsat = false;
      nvars = 0;
    }

  let slot l = if l > 0 then 2 * l else (2 * -l) + 1

  let ensure t v =
    if v > t.nvars then begin
      if v >= Array.length t.assign then begin
        let n = max (v + 1) (2 * Array.length t.assign) in
        let a = Array.make n (-1) in
        Array.blit t.assign 0 a 0 (Array.length t.assign);
        t.assign <- a;
        let w = Array.make (2 * n) [] in
        Array.blit t.watches 0 w 0 (Array.length t.watches);
        t.watches <- w;
        let tr = Array.make n 0 in
        Array.blit t.trail 0 tr 0 t.trail_len;
        t.trail <- tr
      end;
      t.nvars <- v
    end

  (* -1 unknown, 0 false, 1 true. *)
  let val_of t l =
    let a = t.assign.(abs l) in
    if a < 0 then -1 else if l > 0 then a else 1 - a

  let assign_lit t l =
    t.assign.(abs l) <- (if l > 0 then 1 else 0);
    t.trail.(t.trail_len) <- l;
    t.trail_len <- t.trail_len + 1

  (* Propagate everything pending; true iff a conflict was found. *)
  let propagate t =
    let conflict = ref false in
    while (not !conflict) && t.qhead < t.trail_len do
      let l = t.trail.(t.qhead) in
      t.qhead <- t.qhead + 1;
      let falsified = -l in
      let fslot = slot falsified in
      let ws = t.watches.(fslot) in
      t.watches.(fslot) <- [];
      let rec go = function
        | [] -> ()
        | c :: rest ->
            if c.lits.(0) = falsified then begin
              c.lits.(0) <- c.lits.(1);
              c.lits.(1) <- falsified
            end;
            let first = c.lits.(0) in
            if val_of t first = 1 then begin
              t.watches.(fslot) <- c :: t.watches.(fslot);
              go rest
            end
            else begin
              let n = Array.length c.lits in
              let found = ref false in
              let k = ref 2 in
              while (not !found) && !k < n do
                if val_of t c.lits.(!k) <> 0 then begin
                  c.lits.(1) <- c.lits.(!k);
                  c.lits.(!k) <- falsified;
                  t.watches.(slot c.lits.(1)) <- c :: t.watches.(slot c.lits.(1));
                  found := true
                end;
                incr k
              done;
              if !found then go rest
              else begin
                t.watches.(fslot) <- c :: t.watches.(fslot);
                if val_of t first = 0 then begin
                  conflict := true;
                  List.iter (fun c' -> t.watches.(fslot) <- c' :: t.watches.(fslot)) rest
                end
                else begin
                  assign_lit t first;
                  go rest
                end
              end
            end
      in
      go ws
    done;
    !conflict

  let undo_to t mark =
    for i = t.trail_len - 1 downto mark do
      t.assign.(abs t.trail.(i)) <- -1
    done;
    t.trail_len <- mark;
    t.qhead <- mark

  (* Is [lits] an asymmetric-tautology (RUP) consequence of the database?
     Assert the negation of every literal, propagate, require a conflict.
     A clause already satisfied by the permanent assignment — or one that
     contains both a literal and its negation — is trivially implied. *)
  let rup_implied t lits =
    if t.proved_unsat then true
    else begin
      List.iter (fun l -> ensure t (abs l)) lits;
      let mark = t.trail_len in
      let implied = ref false in
      (try
         List.iter
           (fun l ->
             match val_of t l with
             | 1 ->
                 implied := true;
                 raise Exit
             | 0 -> ()
             | _ -> assign_lit t (-l))
           lits
       with Exit -> ());
      let implied = !implied || propagate t in
      undo_to t mark;
      implied
    end

  (* Admit a clause: attach it for propagation, folding permanent units in.
     Precondition: the trail holds only permanent assignments. *)
  let admit t lits =
    List.iter (fun l -> ensure t (abs l)) lits;
    let lits = List.sort_uniq compare lits in
    let taut = List.exists (fun l -> List.mem (-l) lits) lits in
    if not (taut || t.proved_unsat) then begin
      let free = List.filter (fun l -> val_of t l <> 0) lits in
      let satisfied = List.exists (fun l -> val_of t l = 1) free in
      if not satisfied then
        match free with
        | [] -> t.proved_unsat <- true
        | [ l ] ->
            assign_lit t l;
            if propagate t then t.proved_unsat <- true;
            t.qhead <- t.trail_len
        | w0 :: w1 :: _ ->
            (* Watch two non-false literals: order the array so they sit in
               positions 0 and 1. *)
            let rest = List.filter (fun l -> l <> w0 && l <> w1) lits in
            let c = { lits = Array.of_list (w0 :: w1 :: rest) } in
            t.n_clauses <- t.n_clauses + 1;
            t.watches.(slot w0) <- c :: t.watches.(slot w0);
            t.watches.(slot w1) <- c :: t.watches.(slot w1)
    end

  let add_original t lits =
    List.iter (fun l -> ensure t (abs l)) lits;
    t.originals <- { lits = Array.of_list lits } :: t.originals;
    admit t lits

  let add_learnt t lits =
    if rup_implied t lits then begin
      admit t lits;
      true
    end
    else false

  let proved_unsat t = t.proved_unsat

  let check_unsat t ~assumptions =
    if t.proved_unsat then true
    else begin
      List.iter (fun l -> ensure t (abs l)) assumptions;
      let mark = t.trail_len in
      let conflict = ref false in
      (try
         List.iter
           (fun l ->
             match val_of t l with
             | 0 ->
                 conflict := true;
                 raise Exit
             | 1 -> ()
             | _ -> assign_lit t l)
           assumptions
       with Exit -> ());
      let conflict = !conflict || propagate t in
      undo_to t mark;
      conflict
    end

  let check_model t ~assumptions ~value =
    let lit_true l = if l > 0 then value l else not (value (-l)) in
    List.for_all lit_true assumptions
    && List.for_all (fun c -> Array.exists lit_true c.lits) t.originals

  let num_clauses t = t.n_clauses
end

(* ---- bounded proof buffer with disk spill ---------------------------- *)

type step = Orig of int list | Learnt of int list

(* Nominal DRUP-binary footprint of a step: one tag byte, 4 bytes per
   literal, 4 for the terminator.  Deterministic by construction (spilling
   or not does not change it). *)
let nominal_bytes lits = 5 + (4 * List.length lits)

type t = {
  checker : Check.t;
  mutable mem : step list;  (* newest first *)
  mutable mem_bytes : int;
  cap : int;
  mutable spill_chan : out_channel option;
  mutable spill_path : string option;
  mutable spill_failed : bool;
  mutable steps : int;
}

let create ?(mem_cap_bytes = 32 * 1024 * 1024) () =
  {
    checker = Check.create ();
    mem = [];
    mem_bytes = 0;
    cap = max 4096 mem_cap_bytes;
    spill_chan = None;
    spill_path = None;
    spill_failed = false;
    steps = 0;
  }

let checker t = t.checker

let spill_fail t reason =
  if not t.spill_failed then begin
    t.spill_failed <- true;
    (match t.spill_chan with Some ch -> close_out_noerr ch | None -> ());
    t.spill_chan <- None;
    Metrics.incr m_spill_fallbacks;
    Dfm_obs.Log.warn
      (Printf.sprintf "cert: proof spill failed (%s); buffering proof in memory" reason)
  end

let spill_one t step =
  match t.spill_chan with
  | Some ch -> output_value ch step
  | None -> (
      match t.spill_path with
      | Some _ -> assert false
      | None ->
          let path = Filename.temp_file "dfmcert" ".proof" in
          let ch = open_out_bin path in
          t.spill_path <- Some path;
          t.spill_chan <- Some ch;
          (* Flush the in-memory prefix first so drain order is append
             order. *)
          List.iter (output_value ch) (List.rev t.mem);
          t.mem <- [];
          t.mem_bytes <- 0;
          output_value ch step)

let append t step =
  let lits = match step with Orig l | Learnt l -> l in
  let bytes = nominal_bytes lits in
  ignore (Atomic.fetch_and_add proof_bytes_total bytes);
  Metrics.incr ~by:bytes m_proof_bytes;
  t.steps <- t.steps + 1;
  (* [alloc.cap]: Raise simulates the memory cap being hit (forcing the
     spill path); Io_error/Partial_write simulate the cap AND a failing
     spill write (forcing the in-memory fallback). *)
  let forced_cap, forced_io =
    match Dfm_util.Failpoint.check "alloc.cap" with
    | Some Dfm_util.Failpoint.Raise -> (true, false)
    | Some (Dfm_util.Failpoint.Io_error | Dfm_util.Failpoint.Partial_write) -> (true, true)
    | Some (Dfm_util.Failpoint.Delay _) | None -> (false, false)
  in
  let over_cap =
    (not t.spill_failed)
    && (forced_cap || t.spill_chan <> None || t.mem_bytes + bytes > t.cap)
  in
  if over_cap then (
    try
      if forced_io then failwith "injected alloc.cap io error";
      spill_one t step
    with Sys_error e | Failure e ->
      spill_fail t e;
      t.mem <- step :: t.mem;
      t.mem_bytes <- t.mem_bytes + bytes)
  else begin
    t.mem <- step :: t.mem;
    t.mem_bytes <- t.mem_bytes + bytes
  end

let attach t solver =
  Solver.set_trace solver
    (Some
       (function
         | Solver.Trace_original lits -> append t (Orig lits)
         | Solver.Trace_learnt lits -> append t (Learnt lits)))

let admit_step t = function
  | Orig lits -> Check.add_original t.checker lits
  | Learnt lits ->
      if not (Check.add_learnt t.checker lits) then begin
        note_check ~ok:false ~ns:0L;
        raise
          (Check_failed
             (Printf.sprintf "learnt step [%s] is not a unit-propagation consequence"
                (String.concat " " (List.map string_of_int lits))))
      end

(* Feed every buffered step to the checker, spilled prefix first.  Each
   learnt step is RUP-verified exactly once, so total admission work is
   linear in the proof, not quadratic in the number of verdict checks. *)
let drain t =
  (match t.spill_path with
  | None -> ()
  | Some path ->
      (match t.spill_chan with Some ch -> close_out_noerr ch | None -> ());
      t.spill_chan <- None;
      t.spill_path <- None;
      let steps = ref [] in
      (try
         let ic = open_in_bin path in
         (try
            while true do
              steps := (input_value ic : step) :: !steps
            done
          with End_of_file -> ());
         close_in_noerr ic
       with Sys_error e -> spill_fail t e);
      (try Sys.remove path with Sys_error _ -> ());
      List.iter (admit_step t) (List.rev !steps));
  let mem = List.rev t.mem in
  t.mem <- [];
  t.mem_bytes <- 0;
  List.iter (admit_step t) mem

let check_unsat t ~assumptions =
  let ok, ns =
    timed (fun () ->
        drain t;
        Check.check_unsat t.checker ~assumptions)
  in
  note_check ~ok ~ns;
  if not ok then
    raise
      (Check_failed
         (Printf.sprintf "UNSAT certificate does not propagate to conflict under [%s]"
            (String.concat " " (List.map string_of_int assumptions))))

let check_model t ~assumptions ~value =
  let ok, ns =
    timed (fun () ->
        drain t;
        Check.check_model t.checker ~assumptions ~value)
  in
  note_check ~ok ~ns;
  if not ok then
    raise (Check_failed "SAT model does not satisfy the original clauses and assumptions")

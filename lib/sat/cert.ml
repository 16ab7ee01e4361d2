(* Certificate plumbing for solver verdicts.

   Two halves, deliberately decoupled from the solver:

   - [Check] is an independent RUP proof checker.  It shares no code and no
     state with [Solver]: its own clause store, its own watch lists, its own
     assignment array, its own unit propagation.  It is dumb on purpose —
     the only inference it performs is unit propagation, so a bug in the
     solver's conflict analysis, clause minimization, subsumption or
     reduction machinery cannot also hide here.

   - [t] is a certification session gluing one solver's derivation trace
     (see [Solver.set_trace]) to one checker.  Traced steps accumulate in
     an in-memory list and are drained into the checker — each learnt
     step RUP-verified once, at admission — before any verdict check. *)

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

(* Process-wide totals are the metric counters.  [checked] and [failed]
   count verdict-level checks only (one per certified verdict).  [check_ns]
   is the sum of the duration histogram, which records only while
   [Metrics.timing_enabled] (bench turns it on); everything else is
   unconditional. *)
type totals = { checked : int; failed : int; proof_bytes : int; check_ns : int }

let totals () =
  {
    checked = Metrics.counter_value (Metrics.attr_base m_checked);
    failed = Metrics.counter_value (Metrics.attr_base m_failed);
    proof_bytes = Metrics.counter_value m_proof_bytes;
    check_ns = Metrics.histogram_sum m_check_ns;
  }

let note_check ~ok ~ns =
  Metrics.incr_attr (if ok then m_checked else m_failed);
  if Metrics.timing_enabled () then Metrics.observe m_check_ns (Int64.to_int ns)

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

(* ---- proof buffer ---------------------------------------------------- *)

(* Nominal DRUP-binary footprint of a step: one tag byte, 4 bytes per
   literal, 4 for the terminator. *)
let nominal_bytes lits = 5 + (4 * List.length lits)

type t = {
  checker : Check.t;
  mutable pending : Solver.trace_event list;
      (* traced since the last drain, newest first *)
}

let create solver =
  let t = { checker = Check.create (); pending = [] } in
  Solver.set_trace solver
    (Some
       (fun ((Solver.Trace_original lits | Solver.Trace_learnt lits) as step) ->
         Metrics.incr ~by:(nominal_bytes lits) m_proof_bytes;
         t.pending <- step :: t.pending));
  t

let checker t = t.checker

let admit_step t = function
  | Solver.Trace_original lits -> Check.add_original t.checker lits
  | Solver.Trace_learnt lits ->
      if not (Check.add_learnt t.checker lits) then begin
        note_check ~ok:false ~ns:0L;
        raise
          (Check_failed
             (Printf.sprintf "learnt step [%s] is not a unit-propagation consequence"
                (String.concat " " (List.map string_of_int lits))))
      end

(* Feed every step traced since the last drain to the checker, oldest
   first.  Each learnt step is RUP-verified exactly once, so total
   admission work is linear in the proof, not quadratic in the number of
   verdict checks. *)
let drain t =
  let steps = List.rev t.pending in
  t.pending <- [];
  List.iter (admit_step t) steps

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

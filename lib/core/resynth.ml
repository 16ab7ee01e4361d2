module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module Library = Dfm_netlist.Library
module F = Dfm_faults.Fault
module Atpg = Dfm_atpg.Atpg
module Udfm = Dfm_cellmodel.Udfm
module IntSet = Set.Make (Int)
module Span = Dfm_obs.Span
module Progress = Dfm_obs.Progress
module Metrics = Dfm_obs.Metrics
module Mapper = Dfm_synth.Mapper

type event = Checkpoint.event = {
  ev_q : int;
  ev_phase : int;
  ev_cell : string option;
  ev_action : string;
  ev_u : int;
  ev_u_internal : int;
  ev_smax : int;
  ev_delay : float;
  ev_power : float;
}

type effort = Checkpoint.effort = {
  implement_calls : int;
  sat_queries : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  escalation_retries : int;
  aborted_residual : int;
}

type result = {
  initial : Design.t;
  final : Design.t;
  trace : event list;
  accepted : int;
  effort : effort;
  elapsed_s : float;
  resumed_steps : int;
  certified_checks : int;
  certified_failures : int;
}

type checkpoint_spec = { path : string; resume : bool }

let cells_by_internal_faults lib =
  Library.combinational lib
  |> List.sort (fun (a : Cell.t) (b : Cell.t) ->
         let ca = Udfm.internal_fault_count a.Cell.name
         and cb = Udfm.internal_fault_count b.Cell.name in
         if ca <> cb then compare cb ca else compare a.Cell.name b.Cell.name)

(* The q-independent facts of an implemented design: everything the
   acceptance test, the delay/power test and a trace event read. *)
type facts = {
  u : int;
  u_internal : int;
  smax : int;
  faults : int;  (* |F| *)
  delay : float;
  power : float;
}

let facts (d : Design.t) =
  let counts = d.Design.classification.Atpg.counts in
  {
    u = counts.Atpg.undetectable;
    u_internal = counts.Atpg.undetectable_internal;
    smax = List.length d.Design.cluster.Cluster.smax;
    faults = counts.Atpg.total;
    delay = d.Design.timing.Dfm_timing.Sta.critical_path_delay;
    power = d.Design.power.Dfm_timing.Power.total;
  }

let pct_smax f =
  if f.faults = 0 then 0.0 else 100.0 *. float_of_int f.smax /. float_of_int f.faults

(* What evaluating one candidate gave at the current design point: whether
   its region maps, its internal count u_in', and, once PDesign() has run,
   whether it fits and its facts.  None of it depends on q or on the
   threshold, and it holds no netlist or design. *)
type physical = Does_not_fit | Fits of facts

type known = Unmappable | Remapped of int * physical option

type state = {
  mutable current : Design.t;
  memo : (string * int list, known) Hashtbl.t;
      (* keyed by the excluded prefix's boundary cell, which names the
         allowed cells, and the region; emptied whenever [current] changes *)
  mutable misses : int;  (* evaluations the memo could not answer *)
  mutable carry : Carry.t Lazy.t;  (* [current]'s verdicts by fault site *)
  mutable trace : event list;  (* reversed *)
  mutable accepted : int;
  (* The effort as of [solver0], a [Solver.totals] snapshot taken when the
     replay ends: [effort st] adds the solver work since.  A resume restores
     the record from the last journaled accept, so the replay's own work
     stays off the books. *)
  mutable effort : effort;
  mutable solver0 : int * int * int;
  mutable resumed_steps : int;  (* accepted steps replayed from the journal *)
  max_conflicts : int option;
  certify : bool;
  ckpt : Checkpoint.t option;
  floorplan : Dfm_layout.Floorplan.t;
  table : Mapper.table;  (* match table of the campaign's whole library *)
  orig_delay : float;
  orig_power : float;
  seed : int;
  sweep : bool;
  context_levels : int;
  interrupt : unit -> unit;
}

(* The design point moves on: what the memo and the carry index know
   belong to the old one. *)
let set_current st d =
  st.current <- d;
  st.carry <- lazy (Carry.index d);
  Hashtbl.reset st.memo

let effort st =
  let c0, d0, p0 = st.solver0 and c, d, p = Dfm_sat.Solver.totals () in
  let e = st.effort in
  {
    e with
    conflicts = e.conflicts + (c - c0);
    decisions = e.decisions + (d - d0);
    propagations = e.propagations + (p - p0);
  }

let record st ~q ~phase ~cell ~action f =
  let ev =
    {
      ev_q = q;
      ev_phase = phase;
      ev_cell = cell;
      ev_action = action;
      ev_u = f.u;
      ev_u_internal = f.u_internal;
      ev_smax = f.smax;
      ev_delay = f.delay;
      ev_power = f.power;
    }
  in
  st.trace <- ev :: st.trace;
  Progress.update (fun () ->
      Printf.sprintf "q=%d phase %d | %d evaluated, %d accepted | U=%d (internal %d) Smax=%d"
        q phase (List.length st.trace) st.accepted ev.ev_u ev.ev_u_internal ev.ev_smax);
  (* Rejected candidates are journaled here; accepted ones are journaled by
     [run_phase] as Accept records (which embed this same event) once the
     campaign counters have been bumped. *)
  match st.ckpt with
  | Some ck when action = "reject" -> Checkpoint.append_event ck ev
  | Some _ | None -> ()

(* Charge one classification to the campaign: its SAT queries (the
   escalation ladder's retries included) and its escalation outcome. *)
let charge st (cls : Atpg.classification) =
  let retried, residual =
    match cls.Atpg.escalation with
    | None -> (0, 0)
    | Some (es : Atpg.escalation_stats) -> (es.Atpg.retried, es.Atpg.residual)
  in
  let e = st.effort in
  st.effort <-
    {
      e with
      sat_queries = e.sat_queries + cls.Atpg.counts.Atpg.sat_queries;
      escalation_retries = e.escalation_retries + retried;
      aborted_residual = e.aborted_residual + residual;
    }

(* Undetectable internal fault count of a bare netlist (no layout): internal
   faults do not depend on placement/routing, so this gates PDesign() as in
   Section III-B.  It and [implement] carry the current design point's
   verdicts outside [region] (see {!Carry}). *)
let internal_u_of_netlist st ~region nl =
  let faults = Dfm_guidelines.Translate.internal_only nl in
  let cls =
    Atpg.classify ~seed:st.seed ?max_conflicts:st.max_conflicts ~certify:st.certify
      ~known:(Carry.known (Lazy.force st.carry) ~region nl faults) nl faults
  in
  charge st cls;
  cls.Atpg.counts.Atpg.undetectable

(* PDesign() of [nl], a remap of the current design's gates [region], as an
   ECO of the current design.  A resume rebuilds each accept this way. *)
let implement st ~region nl =
  Design.implement ~seed:st.seed ~floorplan:st.floorplan ~previous:st.current
    ?max_conflicts:st.max_conflicts ~certify:st.certify
    ~known:(Carry.known (Lazy.force st.carry) ~region nl) nl

let implement_opt st ~region nl =
  st.effort <- { st.effort with implement_calls = st.effort.implement_calls + 1 };
  try
    let d = implement st ~region nl in
    charge st d.Design.classification;
    Some d
  with Dfm_layout.Place.Does_not_fit _ -> None

let constraints_ok st ~q f =
  let limit base = base *. (1.0 +. (float_of_int q /. 100.0)) +. 1e-9 in
  f.delay <= limit st.orig_delay && f.power <= limit st.orig_power

let accepts ~phase ~p2 st f =
  let cur = facts st.current in
  match phase with
  | 1 -> f.smax < cur.smax && f.u <= cur.u
  | _ -> f.u < cur.u && pct_smax f <= p2 +. 1e-9

let acceptable st ~q ~phase ~p2 f = accepts ~phase ~p2 st f && constraints_ok st ~q f

(* Combinational gates hosting at least one undetectable internal fault,
   optionally restricted to a gate set: this is C_sub − G_zero. *)
let gates_with_undetectable_internal (d : Design.t) ~within =
  let nl = d.Design.netlist in
  let faults = d.Design.fault_list.Dfm_guidelines.Translate.faults in
  let winset = Option.map (fun l -> IntSet.of_list l) within in
  let keep = Hashtbl.create 64 in
  Array.iteri
    (fun fid f ->
      if d.Design.classification.Atpg.status.(fid) = Atpg.Undetectable then
        match f.F.kind with
        | F.Internal (g, _) when not (N.gate nl g).N.cell.Cell.is_seq ->
            let inside = match winset with None -> true | Some s -> IntSet.mem g s in
            if inside then Hashtbl.replace keep g ()
        | F.Internal _ | F.Stuck _ | F.Transition _ | F.Bridge _ -> ())
    faults;
  Hashtbl.fold (fun g () acc -> g :: acc) keep [] |> List.sort compare

(* Grow a region with [levels] levels of combinational fanin context.
   DESIGN.md §5 documents this deviation: the paper's C_sub = G_max spans
   hundreds-to-thousands of gates and naturally contains the logic that
   *causes* the local redundancy; at our scaled-down cluster sizes the same
   context must be added explicitly or Synthesize() sees the correlated
   control signals as opaque inputs and cannot remove anything. *)
let grow_region nl region ~levels =
  let set = ref (IntSet.of_list region) in
  for _ = 1 to levels do
    IntSet.iter
      (fun g ->
        List.iter
          (fun d -> if not (N.gate nl d).N.cell.Cell.is_seq then set := IntSet.add d !set)
          (N.fanin_gates nl g))
      !set
  done;
  IntSet.elements !set

(* Candidate netlists are canonicalized through the Netlist_io text
   roundtrip before use.  The fresh names and net ids the mapper stitches
   into a remapped netlist depend on the in-memory id layout of the parent
   it was grown from; the roundtrip renumbers everything into text order —
   a fixpoint of read∘to_string — so a campaign resumed from journaled
   netlist text walks through identical netlist representations and
   re-derives a bit-identical continuation (see {!Checkpoint}). *)
let canonical nl =
  Span.with_ "synth.canonical" @@ fun () ->
  Dfm_netlist.Netlist_io.read ~library:nl.N.library (Dfm_netlist.Netlist_io.to_string nl)

(* Synthesize() of the current design's gates [region] with the cells of
   [table].  Under [certify] the region is proven equal to its remap before
   the splice: the certificate of every verdict carried around it. *)
let remap_opt st ~region ~table =
  let nl = st.current.Design.netlist in
  try
    let sub, boundary = Span.with_ "synth.extract" (fun () -> N.extract nl ~gates:region) in
    let mapped = Dfm_synth.Convert.remap ~goal:`Area ~sweep:st.sweep sub ~table in
    if st.certify then Carry.prove_region ~sub mapped;
    let spliced =
      Span.with_ "synth.replace" (fun () -> N.replace nl ~gates:region ~sub:mapped boundary)
    in
    Some (canonical spliced)
  with Mapper.Unmappable _ -> None

(* One evaluated candidate: remap, cheap internal check, full implement.
   [threshold] is the internal-undetectable count to beat before physical
   design is worth running. *)
type candidate_outcome =
  | Worse            (* internal undetectables did not decrease: no PDesign *)
  | No_fit           (* floorplan (die area) violated *)
  | Implemented of int * facts * (int list * Design.t) option
      (* the candidate's internal count, its facts, and its region and
         design; those are there whenever the facts pass [wanted] *)

(* Only [constraints_ok] reads q, and the design point changes only on an
   accept, so each candidate (region and allowed cells) is evaluated once
   per design point and a repeat is answered from [st.memo].  An accept
   needs the design, which the memo does not keep: when [wanted] passes
   stored facts, remap and PDesign() run again.  Both are deterministic,
   so they rebuild the same design. *)
let evaluate st ~threshold ~wanted ~cell ~region ~table =
  st.interrupt ();
  let key = (cell, region) in
  let store k = Hashtbl.replace st.memo key k in
  (* The work itself; the internal check only when u_in' is not known. *)
  let run known_u_in =
    match Span.with_ "remap" (fun () -> remap_opt st ~region ~table) with
    | None ->
        store Unmappable;
        None
    | Some nl ->
        let u_in' =
          match known_u_in with
          | Some u -> u
          | None -> Span.with_ "internal_check" (fun () -> internal_u_of_netlist st ~region nl)
        in
        if u_in' >= threshold then begin
          store (Remapped (u_in', None));
          Some Worse
        end
        else begin
          match implement_opt st ~region nl with
          | None ->
              store (Remapped (u_in', Some Does_not_fit));
              Some No_fit
          | Some d ->
              let f = facts d in
              store (Remapped (u_in', Some (Fits f)));
              Some (Implemented (u_in', f, Some (region, d)))
        end
  in
  match Hashtbl.find_opt st.memo key with
  | None ->
      st.misses <- st.misses + 1;
      run None
  | Some Unmappable -> None
  | Some (Remapped (u_in', _)) when u_in' >= threshold -> Some Worse
  | Some (Remapped (u_in', None)) ->
      (* worse under a lower threshold, so PDesign() never ran *)
      st.misses <- st.misses + 1;
      run (Some u_in')
  | Some (Remapped (_, Some Does_not_fit)) -> Some No_fit
  | Some (Remapped (u_in', Some (Fits f))) ->
      if wanted f then run (Some u_in') else Some (Implemented (u_in', f, None))

(* ------------------------------------------------------------------ *)
(* Backtracking procedure (Section III-C)                               *)
(* ------------------------------------------------------------------ *)

let backtrack st ~q ~phase ~p2 ~region ~table ~prefix_names ~cell_name =
  let nl = st.current.Design.netlist in
  let g_i =
    List.filter (fun g -> List.mem (N.gate nl g).N.cell.Cell.name prefix_names) region
  in
  let n = List.length g_i in
  if n = 0 then None
  else begin
    let step = max 1 (int_of_float (Float.round (sqrt (float_of_int n)))) in
    let g_i = Array.of_list g_i in
    (* [frozen] gates move from G_i into G_back (kept unchanged). *)
    let result = ref None in
    let frozen = ref 0 in
    let threshold = (facts st.current).u_internal in
    let try_with_back nback =
      let back = Array.to_list (Array.sub g_i 0 nback) in
      let region' = List.filter (fun g -> not (List.mem g back)) region in
      if region' = [] then None
      else
        evaluate st ~threshold ~wanted:(acceptable st ~q ~phase ~p2) ~cell:cell_name
          ~region:region' ~table
    in
    (try
       while !frozen < n && !result = None do
         let nback = min n (!frozen + step) in
         frozen := nback;
         match try_with_back nback with
         | None | Some Worse ->
             (* Freezing ever more gates cannot lower the internal count
                again; stop. *)
             raise Exit
         | Some No_fit -> ()  (* still too large: freeze more *)
         | Some (Implemented (_, f, d)) ->
             let ok_c = constraints_ok st ~q f and ok_a = accepts ~phase ~p2 st f in
             if ok_c && ok_a then begin
               record st ~q ~phase ~cell:(Some cell_name) ~action:"backtrack-accept" f;
               result := d
             end
             else if ok_c (* constraints met but too few faults removed:
                             return the last group one gate at a time *) then begin
               let lo = nback - step in
               let k = ref (nback - 1) in
               while !k > lo && !result = None do
                 (match try_with_back !k with
                 | Some (Implemented (_, f2, d2)) ->
                     let ok_c2 = constraints_ok st ~q f2 and ok_a2 = accepts ~phase ~p2 st f2 in
                     if ok_c2 && ok_a2 then begin
                       record st ~q ~phase ~cell:(Some cell_name) ~action:"backtrack-accept" f2;
                       result := d2
                     end
                     else if not ok_c2 then raise Exit
                 | Some Worse | Some No_fit | None -> ());
                 decr k
               done;
               raise Exit
             end
             (* constraints violated: freeze more gates *)
       done
     with Exit -> ());
    !result
  end

(* ------------------------------------------------------------------ *)
(* One improvement attempt: the cell loop of Section III-B              *)
(* ------------------------------------------------------------------ *)

(* One series per candidate outcome, each registered at zero. *)
let m_candidates =
  List.map
    (fun o ->
      ( o,
        Metrics.counter ~help:"Resynthesis candidates by outcome" ~labels:[ ("outcome", o) ]
          "dfm_resynth_candidates_total" ))
    [ "accept"; "backtrack-accept"; "reject"; "worse"; "no_fit"; "over_budget"; "unmappable" ]

let try_cells st ~q ~phase ~p2 ~region =
  let nl = st.current.Design.netlist in
  let cur = facts st.current in
  let ordered = cells_by_internal_faults (Mapper.library st.table) in
  (* Only candidates that set a new best internal-undetectable count get the
     expensive physical design + full ATPG; later prefixes that are merely
     "not worse" are skipped.  This mirrors the paper's rule of calling
     PDesign() only on an internal improvement, applied per scan. *)
  let best_u_in = ref cur.u_internal in
  let used_in_region =
    List.fold_left
      (fun acc g -> (N.gate nl g).N.cell.Cell.name :: acc)
      [] region
    |> List.sort_uniq compare
  in
  let result = ref None in
  let rising = ref 0 in
  let prefix = ref [] in
  (* The allowed cells' match table, derived from the previous prefix's
     table one excluded cell at a time. *)
  let allowed = ref st.table in
  (try
     List.iter
       (fun (cell : Cell.t) ->
         prefix := cell.Cell.name :: !prefix;
         allowed := Mapper.restrict !allowed ~excluded:[ cell.Cell.name ];
         (* Eligibility (1)+(2): a gate of this type, with undetectable
            internal faults, is in C_sub − G_zero (the region contains only
            such gates). *)
         if List.mem cell.Cell.name used_in_region then begin
           Span.with_ "candidate" ~attrs:[ ("cell", cell.Cell.name) ] @@ fun () ->
           let table = !allowed in
           let misses = st.misses in
           (* Every candidate ends in exactly one outcome.  It was answered
              from the memo if none of its evaluations missed. *)
           let outcome o =
             Span.note "outcome" o;
             if st.misses = misses then Span.note "memo" "hit";
             Metrics.incr (List.assoc o m_candidates)
           in
           let backtrack_or ~failed =
             match
               backtrack st ~q ~phase ~p2 ~region ~table ~prefix_names:!prefix
                 ~cell_name:cell.Cell.name
             with
             | Some d ->
                 outcome "backtrack-accept";
                 result := Some d;
                 raise Exit
             | None -> outcome failed
           in
           match
             evaluate st ~threshold:!best_u_in ~wanted:(acceptable st ~q ~phase ~p2)
               ~cell:cell.Cell.name ~region ~table
           with
           | None -> outcome "unmappable"  (* eligibility (3) fails: cells not sufficient *)
           | Some Worse -> outcome "worse"
           | Some No_fit -> backtrack_or ~failed:"no_fit"
           | Some (Implemented (u_in', f, d)) ->
               best_u_in := min !best_u_in u_in';
               let ok_a = accepts ~phase ~p2 st f in
               let ok_c = constraints_ok st ~q f in
               if ok_a && ok_c then begin
                 outcome "accept";
                 record st ~q ~phase ~cell:(Some cell.Cell.name) ~action:"accept" f;
                 result := d;
                 raise Exit
               end
               else if ok_a (* acceptance met, constraints violated *) then
                 backtrack_or ~failed:"over_budget"
               else begin
                 outcome "reject";
                 record st ~q ~phase ~cell:(Some cell.Cell.name) ~action:"reject" f;
                 (* Section III-B early exit: as ever more cells are
                    excluded the undetectable count eventually trends up;
                    stop the scan when it does so twice in a row. *)
                 if f.u > cur.u then begin
                   incr rising;
                   if !rising >= 2 then raise Exit
                 end
                 else rising := 0
               end
         end)
       ordered
   with Exit -> ());
  !result

(* ------------------------------------------------------------------ *)
(* Phases and the q sweep                                               *)
(* ------------------------------------------------------------------ *)

(* The match table of the candidates whose excluded prefix ends at [cell]:
   the one [try_cells] derives one cell at a time. *)
let table_through st cell =
  let cells = cells_by_internal_faults (Mapper.library st.table) in
  let names = List.map (fun (c : Cell.t) -> c.Cell.name) cells in
  Option.map
    (fun i -> Mapper.restrict st.table ~excluded:(List.filteri (fun j _ -> j <= i) names))
    (List.find_index (String.equal cell) names)

(* Certified mode: an accepted ECO carries a checked equivalence
   certificate before the checkpoint journal records it — the rewritten
   netlist is proven functionally identical to the design it replaces and
   the per-output UNSAT proofs are replayed through the independent
   checker.  The verifying solver is uncounted so a certified campaign
   reports the same search effort as an uncertified one. *)
let certify_accept st (d' : Design.t) =
  if st.certify then begin
    let t0 = Dfm_obs.Clock.now_ns () in
    let verdict =
      Dfm_atpg.Equiv_sat.check ~certify:true ~counted:false st.current.Design.netlist
        d'.Design.netlist
    in
    let ok = verdict = Dfm_atpg.Equiv_sat.Equivalent in
    Dfm_sat.Cert.note_check ~ok ~ns:(Int64.sub (Dfm_obs.Clock.now_ns ()) t0);
    if not ok then
      raise
        (Dfm_sat.Cert.Check_failed
           (match verdict with
           | Dfm_atpg.Equiv_sat.Different label ->
               "accepted ECO differs from the design it replaces at output " ^ label
           | Dfm_atpg.Equiv_sat.Interface_mismatch what ->
               "accepted ECO changes the design interface: " ^ what
           | Dfm_atpg.Equiv_sat.Equivalent -> assert false))
  end

let run_phase st ~q ~phase ~p1 ~p2 =
  Span.with_ "phase"
    ~attrs:[ ("q", string_of_int q); ("phase", string_of_int phase) ]
  @@ fun () ->
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    st.interrupt ();
    let d = st.current in
    let cur = facts d in
    let stop =
      match phase with
      | 1 -> cur.smax = 0 || pct_smax cur <= p1 +. 1e-9
      | _ -> cur.u = 0
    in
    if not stop then begin
      let within = match phase with 1 -> Some d.Design.cluster.Cluster.gmax | _ -> None in
      let core_region = gates_with_undetectable_internal d ~within in
      let region = grow_region d.Design.netlist core_region ~levels:st.context_levels in
      if core_region <> [] then begin
        match try_cells st ~q ~phase ~p2 ~region with
        | Some (remapped, d') ->
            certify_accept st d';
            set_current st d';
            st.accepted <- st.accepted + 1;
            (* Checkpoint the accepted design point: the accept event (just
               recorded at the head of the trace), the netlist text to
               replay the ECO chain from, the counts as of now, and the
               loop position — everything a resumed run needs to continue
               as the exact original continuation. *)
            (match st.ckpt with
            | None -> ()
            | Some ck ->
                Checkpoint.append_accept ck
                  {
                    Checkpoint.ev = List.hd st.trace;
                    netlist = Dfm_netlist.Netlist_io.to_string d'.Design.netlist;
                    region = remapped;
                    accepted = st.accepted;
                    effort = effort st;
                    p2;
                  });
            let f = facts d' in
            Dfm_obs.Log.info
              (Printf.sprintf "q=%d phase %d: accepted, U=%d (internal %d), Smax=%d" q phase f.u
                 f.u_internal f.smax);
            continue_ := true
        | None -> ()
      end
    end
  done

(* The header ties a journal to everything that determines the campaign's
   outcome; resuming under a different configuration would not be the same
   run, so it is refused.  [certify] is left out: it adds checks, never
   changes a result. *)
let checkpoint_header ~p1_percent ~q_max ~seed ~sweep ~context_levels ~max_conflicts initial =
  Printf.sprintf "dfm-resynth v1 nl=%Lx p1=%h q_max=%d seed=%d sweep=%b ctx=%d mc=%s"
    (Dfm_util.Hash64.of_string
       (Dfm_netlist.Netlist_io.to_string initial.Design.netlist))
    p1_percent q_max seed sweep context_levels
    (match max_conflicts with None -> "-" | Some c -> string_of_int c)

let run ?(p1_percent = 1.0) ?(q_max = 5) ?(seed = 3) ?(sweep = true) ?(context_levels = 2)
    ?max_conflicts ?(certify = false) ?checkpoint ?interrupt initial =
  let interrupt = match interrupt with Some f -> f | None -> fun () -> () in
  Span.with_ "campaign" ~attrs:[ ("q_max", string_of_int q_max) ] @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* Certification counters are process-wide; attribute to this run only the
     checks performed during this call (replay and campaign). *)
  let cert0 = Dfm_sat.Cert.totals () in
  (* Attach the journal (if any) first: a header mismatch or an unwritable
     path must fail before any expensive work starts. *)
  let ckpt, replay =
    match checkpoint with
    | None -> (None, [])
    | Some { path; resume } ->
        let header =
          checkpoint_header ~p1_percent ~q_max ~seed ~sweep ~context_levels ~max_conflicts
            initial
        in
        let t, entries = Checkpoint.attach ~resume ~header path in
        (Some t, entries)
  in
  let st =
    {
      current = initial;
      memo = Hashtbl.create 64;
      misses = 0;
      carry = lazy (Carry.index initial);
      trace = [];
      accepted = 0;
      effort =
        {
          implement_calls = 0;
          sat_queries = 0;
          conflicts = 0;
          decisions = 0;
          propagations = 0;
          escalation_retries = 0;
          aborted_residual = 0;
        };
      solver0 = (0, 0, 0);
      resumed_steps = 0;
      max_conflicts;
      certify;
      ckpt;
      floorplan = initial.Design.floorplan;
      table = Mapper.build_table initial.Design.netlist.N.library;
      orig_delay = initial.Design.timing.Dfm_timing.Sta.critical_path_delay;
      orig_power = initial.Design.power.Dfm_timing.Power.total;
      seed;
      sweep;
      context_levels;
      interrupt;
    }
  in
  (* Replay the journal.  Rejected events are restored verbatim; each
     accepted design point is derived like a live accept, [remap_opt] of the
     journaled region and boundary cell (which must give the journaled
     text), then PDesign() carrying the previous accepted design's verdicts
     — the same incremental (ECO) chain the original run walked, hence a
     bit-identical design state, also where a bounded budget would have
     aborted a carried fault.  The accepted count and the effort are
     restored from the last Accept; the replay's own implement/SAT work is
     bookkeeping-free (it happened already, in the run being resumed). *)
  let resume_q = ref 0 and resume_phase = ref 1 and resume_p2 = ref 0.0 in
  List.iter
    (function
      | Checkpoint.Header _ -> ()
      | Checkpoint.Event e -> st.trace <- e :: st.trace
      | Checkpoint.Accept a ->
          let region = a.Checkpoint.region in
          let table = Option.bind a.Checkpoint.ev.ev_cell (table_through st) in
          let nl =
            match Option.bind table (fun table -> remap_opt st ~region ~table) with
            | Some nl when Dfm_netlist.Netlist_io.to_string nl = a.Checkpoint.netlist -> nl
            | Some _ | None ->
                raise (Checkpoint.Error "checkpoint: a journaled accept does not rebuild")
          in
          let d = implement st ~region nl in
          (* Resumed accepts are re-certified like fresh ones: the journal
             records a claim, not a proof. *)
          certify_accept st d;
          set_current st d;
          st.trace <- a.Checkpoint.ev :: st.trace;
          st.accepted <- a.Checkpoint.accepted;
          st.effort <- a.Checkpoint.effort;
          st.resumed_steps <- st.resumed_steps + 1;
          resume_q := a.Checkpoint.ev.ev_q;
          resume_phase := a.Checkpoint.ev.ev_phase;
          resume_p2 := a.Checkpoint.p2)
    replay;
  if st.resumed_steps > 0 then
    Dfm_obs.Log.info
      (Printf.sprintf "resume: replayed %d accepted step(s), continuing at q=%d phase %d"
         st.resumed_steps !resume_q !resume_phase);
  st.solver0 <- Dfm_sat.Solver.totals ();
  (* The interrupt hook aborts by raising; the journal must still be
     closed so the campaign stays resumable from its last accept. *)
  Fun.protect ~finally:(fun () -> Option.iter Checkpoint.close ckpt) @@ fun () ->
  for q = !resume_q to q_max do
    Span.with_ "q-step" ~attrs:[ ("q", string_of_int q) ] @@ fun () ->
    (* Never re-enter phase 1 of a q whose phase 2 already accepted: phase 1
       ran to its fixpoint before phase 2 started, and the phase-2 accepts
       may have moved S_max back above its threshold.  The journaled p2 is
       the bound the original run computed at that boundary. *)
    let in_resumed_phase2 = q = !resume_q && !resume_phase = 2 in
    if not in_resumed_phase2 then run_phase st ~q ~phase:1 ~p1:p1_percent ~p2:0.0;
    let p2 =
      if in_resumed_phase2 then !resume_p2
      else Float.max p1_percent (pct_smax (facts st.current))
    in
    run_phase st ~q ~phase:2 ~p1:p1_percent ~p2
  done;
  Progress.finish ();
  {
    initial;
    final = st.current;
    trace = List.rev st.trace;
    accepted = st.accepted;
    effort = effort st;
    elapsed_s = Unix.gettimeofday () -. t0;
    resumed_steps = st.resumed_steps;
    certified_checks = (Dfm_sat.Cert.totals ()).Dfm_sat.Cert.checked - cert0.Dfm_sat.Cert.checked;
    certified_failures = (Dfm_sat.Cert.totals ()).Dfm_sat.Cert.failed - cert0.Dfm_sat.Cert.failed;
  }

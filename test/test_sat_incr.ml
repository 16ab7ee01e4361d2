(* Tests for the incremental assumption-based SAT core.

   Pinned effort first: the exact conflict, decision and propagation
   counts of three [Design.implement] runs, so a change to the solver's
   data layout cannot change its search unnoticed.

   Then three layers of differential evidence:

   - Solver level: random CNF query batches run as activation-guarded
     groups over one persistent solver must answer exactly like a
     throwaway solver per query; after every solve the between-solve
     invariants hold
     ([Solver.check_invariants]) and every retained learnt clause is
     re-proved to be implied by the clauses added so far.  One session is
     driven until its clause arena is compacted, and keeps answering
     correctly afterwards.

   - ATPG level: [Atpg.classify] (its escalation ladder included) and
     [generate] must produce the verdicts of a cold per-fault reference
     ([Cold]: a fresh session per fault, every fault SAT-checked), at jobs
     1 and 4, including after a region rewrite — and every test pattern
     must be confirmed by the independent fault simulator.

   - Campaign level: the [sat.solve] failpoint kills a checkpointed
     campaign mid-incremental-session; the resume must be bit-identical to
     the uninterrupted run. *)

module Solver = Dfm_sat.Solver
module Metrics = Dfm_obs.Metrics
module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Atpg = Dfm_atpg.Atpg
module Encode = Dfm_atpg.Encode
module Ls = Dfm_sim.Logic_sim
module Fs = Dfm_sim.Fault_sim
module Rng = Dfm_util.Rng
module Failpoint = Dfm_util.Failpoint
module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Netlist_io = Dfm_netlist.Netlist_io

let lib = Dfm_cellmodel.Osu018.library
let table = lazy (Dfm_synth.Mapper.build_table lib)
let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 }

(* ------------------------------------------------------------------ *)
(* Solver level: session fuzz against one-shot solving                 *)
(* ------------------------------------------------------------------ *)

let brute_sat nvars clauses =
  let rec try_assignment m =
    if m >= 1 lsl nvars then false
    else
      List.for_all
        (fun c ->
          List.exists
            (fun l ->
              let v = (m lsr (abs l - 1)) land 1 = 1 in
              if l > 0 then v else not v)
            c)
        clauses
      || try_assignment (m + 1)
  in
  try_assignment 0

(* A base CNF plus a list of query groups, all over the same variables. *)
let arb_session_problem =
  let print_clauses cs =
    String.concat " ; " (List.map (fun c -> String.concat " " (List.map string_of_int c)) cs)
  in
  QCheck.make
    ~print:(fun (n, base, groups) ->
      Printf.sprintf "n=%d base=[%s] groups=[%s]" n (print_clauses base)
        (String.concat " | " (List.map print_clauses groups)))
    QCheck.Gen.(
      int_range 2 8 >>= fun nvars ->
      let clause =
        list_size (int_range 1 3)
          (map (fun (v, s) -> if s then v + 1 else -(v + 1)) (pair (int_bound (nvars - 1)) bool))
      in
      triple (return nvars)
        (list_size (int_range 0 10) clause)
        (list_size (int_range 1 6) (list_size (int_range 1 8) clause)))

(* Re-prove learnt clauses: CNF-so-far /\ not(C) must be UNSAT.  Checks
   the first 50 retained clauses and returns one that is not implied. *)
let unimplied_learnt all_clauses solver =
  List.filteri (fun i _ -> i < 50) (Solver.learnt_clauses solver)
  |> List.find_opt (fun c ->
         let s = Solver.create () in
         Solver.ensure_vars s (Solver.num_vars solver);
         List.iter (Solver.add_clause s) all_clauses;
         List.iter (fun l -> Solver.add_clause s [ -l ]) c;
         Solver.solve s <> Solver.Unsat)

let show_clause c = String.concat " " (List.map string_of_int c)

let check_learnts_implied all_clauses solver =
  match unimplied_learnt all_clauses solver with
  | Some c ->
      QCheck.Test.fail_reportf "learnt clause [%s] is not implied by the CNF" (show_clause c)
  | None -> true

let prop_session_matches_oneshot =
  QCheck.Test.make ~name:"incremental session answers = one-shot per query" ~count:100
    arb_session_problem (fun (nvars, base, groups) ->
      let solver = Solver.create () in
      Solver.ensure_vars solver nvars;
      (* every clause in solver numbering, for the learnt implication check *)
      let all_clauses = ref [] in
      List.iter
        (fun c ->
          Solver.add_clause solver c;
          all_clauses := c :: !all_clauses)
        base;
      List.iter
        (fun group ->
          let act = Solver.new_var solver in
          List.iter
            (fun c ->
              Solver.add_clause solver (-act :: c);
              all_clauses := (-act :: c) :: !all_clauses)
            group;
          let r = Solver.solve ~assumptions:[ act ] solver in
          Solver.check_invariants solver;
          (* one-shot reference: base /\ group, nothing else (earlier
             groups' guards are free, so they are invisible) *)
          let expect = brute_sat nvars (base @ group) in
          (match r with
          | Solver.Sat ->
              if not expect then QCheck.Test.fail_report "session Sat, brute force Unsat";
              (* the model must satisfy base and group, with act assumed *)
              if not (Solver.lit_value solver act) then
                QCheck.Test.fail_report "assumed activation false in model";
              List.iter
                (fun c ->
                  if not (List.exists (Solver.lit_value solver) c) then
                    QCheck.Test.fail_report "model violates an active clause")
                (base @ group)
          | Solver.Unsat ->
              if expect then QCheck.Test.fail_report "session Unsat, brute force Sat"
          | Solver.Unknown -> QCheck.Test.fail_report "unbounded solve returned Unknown");
          ())
        groups;
      check_learnts_implied !all_clauses solver)

let prop_assumption_solves =
  QCheck.Test.make ~name:"solves under assumptions match brute force" ~count:150
    arb_session_problem (fun (nvars, base, groups) ->
      let clauses = base @ List.concat groups in
      let s = Solver.create () in
      Solver.ensure_vars s nvars;
      List.iter (Solver.add_clause s) clauses;
      (* assume a sign for every other variable *)
      let assumptions =
        List.init nvars (fun i -> i + 1)
        |> List.filteri (fun i _ -> i mod 2 = 0)
        |> List.map (fun v -> if v mod 4 = 1 then v else -v)
      in
      (match Solver.solve ~assumptions s with
      | Solver.Sat ->
          List.iter
            (fun l ->
              if not (Solver.lit_value s l) then
                QCheck.Test.fail_report "Sat model contradicts an assumption")
            assumptions
      | Solver.Unsat ->
          (* the clauses plus one unit per assumption are unsatisfiable *)
          if brute_sat nvars (clauses @ List.map (fun l -> [ l ]) assumptions) then
            QCheck.Test.fail_report "Unsat under assumptions, brute force Sat"
      | Solver.Unknown -> QCheck.Test.fail_report "unbounded solve returned Unknown");
      Solver.check_invariants s;
      true)

let test_retire_semantics () =
  let solver = Solver.create () in
  Solver.ensure_vars solver 2;
  Solver.add_clause solver [ 1; 2 ];
  let act1 = Solver.new_var solver in
  let x = Solver.new_var solver in
  Solver.add_clause solver [ -act1; -1 ];
  Solver.add_clause solver [ -act1; -2 ];
  Solver.add_clause solver [ -act1; x; 1 ];
  Alcotest.(check bool) "group 1 contradicts the base" true
    (Solver.solve ~assumptions:[ act1 ] solver = Solver.Unsat);
  let act2 = Solver.new_var solver in
  Solver.add_clause solver [ -act2; 1 ];
  Alcotest.(check bool) "group 2 solvable" true
    (Solver.solve ~assumptions:[ act2 ] solver = Solver.Sat);
  Solver.retire solver ~act:act1 ~locals:[ x ];
  Solver.check_invariants solver;
  Alcotest.(check bool) "group 2 unaffected by the retirement" true
    (Solver.solve ~assumptions:[ act2 ] solver = Solver.Sat);
  (* the retired activation is permanently off: assuming it is contradictory *)
  Alcotest.(check bool) "retired group cannot be reactivated" true
    (Solver.solve ~assumptions:[ act1 ] solver = Solver.Unsat);
  (* the free local is pinned at level 0 *)
  Alcotest.(check bool) "retired local is pinned" true
    (Solver.solve ~assumptions:[ -x ] solver = Solver.Unsat)

(* Arena collection: guarded add/solve/retire rounds on one session fill
   the clause arena with retired cones until [simplify] compacts it.  Every
   answer, before and after the compaction, must match a fresh solver on
   base /\ group, the invariant audit (arena walk, dead-word count, watch
   entries) must hold after every solve, and the learnt clauses that
   survived the move must still be implied by the CNF. *)
let test_arena_collection () =
  let m_collect = Metrics.counter "dfm_sat_arena_collections_total" in
  let c0 = Metrics.counter_value m_collect in
  let rng = Rng.create 17 in
  let nvars = 40 in
  let clause () =
    List.init 3
      (fun _ ->
        let v = 1 + Rng.int rng nvars in
        if Rng.bool rng then v else -v)
  in
  let solver = Solver.create () in
  Solver.ensure_vars solver nvars;
  let base = List.init 8 (fun _ -> clause ()) in
  List.iter (Solver.add_clause solver) base;
  let all_clauses = ref base in
  (* each group is retired one round late, so the learnt clauses of the
     live group are in the arena when a compaction moves it *)
  let previous = ref None in
  let round () =
    let act = Solver.new_var solver in
    let group = List.init (140 + Rng.int rng 40) (fun _ -> clause ()) in
    List.iter
      (fun c ->
        Solver.add_clause solver (-act :: c);
        all_clauses := (-act :: c) :: !all_clauses)
      group;
    let r = Solver.solve ~assumptions:[ act ] solver in
    Solver.check_invariants solver;
    let fresh = Solver.create () in
    List.iter (Solver.add_clause fresh) (base @ group);
    Alcotest.(check bool) "session answer = fresh solver" true (r = Solver.solve fresh);
    if r = Solver.Sat then
      List.iter
        (fun c ->
          Alcotest.(check bool) "model satisfies base and group" true
            (List.exists (Solver.lit_value solver) c))
        (base @ group);
    Option.iter
      (fun prev ->
        Solver.retire solver ~act:prev ~locals:[];
        all_clauses := [ -prev ] :: !all_clauses)
      !previous;
    previous := Some act
  in
  let rounds = ref 0 in
  while Metrics.counter_value m_collect = c0 && !rounds < 200 do
    round ();
    incr rounds
  done;
  Alcotest.(check bool) "the arena was collected" true (Metrics.counter_value m_collect > c0);
  Alcotest.(check bool) "learnt clauses retained" true (Solver.num_learnts solver > 0);
  (* keep using the compacted solver *)
  for _ = 1 to 5 do
    round ()
  done;
  match unimplied_learnt !all_clauses solver with
  | Some c -> Alcotest.failf "learnt clause [%s] is not implied by the CNF" (show_clause c)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* ATPG level: against the cold per-fault reference                    *)
(* ------------------------------------------------------------------ *)

let random_netlist seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"rand" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  let cells = [| "INVX1"; "NAND2X1"; "NOR2X1"; "XOR2X1"; "AOI21X1"; "OAI21X1" |] in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let cname = Rng.pick rng cells in
    let c = Dfm_netlist.Library.find lib cname in
    let fanins = Array.init (Cell.arity c) (fun _ -> Rng.pick rng arr) in
    nets := B.add_gate b ~cell:cname fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 3 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

let all_faults nl =
  let faults = ref [] in
  let id = ref 0 in
  let add kind =
    faults := { F.fault_id = !id; kind; origin } :: !faults;
    incr id
  in
  Array.iter
    (fun (nn : N.net) ->
      List.iter (fun pol -> add (F.Stuck (F.On_net nn.N.net_id, pol))) [ F.Sa0; F.Sa1 ];
      List.iter
        (fun tr -> add (F.Transition (F.On_net nn.N.net_id, tr)))
        [ F.Slow_to_rise; F.Slow_to_fall ])
    nl.N.nets;
  Array.iteri
    (fun gid (g : N.gate) ->
      Array.iteri
        (fun pin _ ->
          List.iter (fun pol -> add (F.Stuck (F.On_pin (gid, pin), pol))) [ F.Sa0; F.Sa1 ])
        g.N.fanins;
      let u = Dfm_cellmodel.Udfm.for_cell g.N.cell.Cell.name in
      List.iteri
        (fun entry_idx _ -> if entry_idx < 4 then add (F.Internal (gid, entry_idx)))
        u.Dfm_cellmodel.Udfm.entries)
    nl.N.gates;
  Array.of_list (List.rev !faults)

let same_classification name (a : Atpg.classification) (b : Atpg.classification) =
  Alcotest.(check bool) (name ^ ": statuses identical") true (a.Atpg.status = b.Atpg.status);
  Alcotest.(check bool) (name ^ ": counts identical") true (a.Atpg.counts = b.Atpg.counts)

(* [classify] at jobs 1 and 4 reaches the cold per-fault verdicts, and the
   two job counts agree on statuses and counts. *)
let classify_matches_cold nl faults =
  let inc1 = Atpg.classify ~jobs:1 nl faults in
  let inc4 = Atpg.classify ~jobs:4 nl faults in
  Cold.statuses nl faults = inc1.Atpg.status
  && inc1.Atpg.status = inc4.Atpg.status
  && inc1.Atpg.counts = inc4.Atpg.counts

let prop_modes_agree =
  QCheck.Test.make ~name:"incremental = oneshot verdicts at jobs 1 and 4" ~count:6
    QCheck.(pair (int_range 1 100000) (int_range 6 18))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      classify_matches_cold nl (all_faults nl))

(* The resynthesis loop's central move is a region rewrite; the identity
   with the cold reference must survive it. *)
let prop_modes_agree_after_replace =
  QCheck.Test.make ~name:"mode identity survives a region rewrite" ~count:4
    QCheck.(pair (int_range 1 100000) (int_range 10 20))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let comb = N.comb_gates nl in
      QCheck.assume (List.length comb >= 2);
      let rng = Rng.create (seed lxor 0x5A7) in
      let region =
        List.filteri (fun i _ -> i < 1 + Rng.int rng 3) (List.map (fun g -> g.N.gate_id) comb)
      in
      let nl' =
        try
          Dfm_synth.Convert.remap_region ~goal:`Area ~sweep:true nl ~gates:region
            ~table:(Lazy.force table)
        with Dfm_synth.Mapper.Unmappable _ -> nl
      in
      classify_matches_cold nl' (all_faults nl'))

(* [generate]: the cold verdicts, zero simulator disagreements, and the
   test set replayed through the independent fault simulator must cover
   every fault classified Detected. *)
let test_generate_cold () =
  let nl = random_netlist 42 5 12 in
  let faults = all_faults nl in
  let g = Atpg.generate nl faults in
  Alcotest.(check bool) "generate: cold statuses" true
    (Cold.statuses nl faults = g.Atpg.classification.Atpg.status);
  Alcotest.(check int) "cross-check clean" 0 g.Atpg.cross_check_failures;
  let ls = Ls.prepare nl in
  let fs = Fs.prepare nl in
  let detected = Array.make (Array.length faults) false in
  let init_seen = Array.make (Array.length faults) false in
  let stuck_seen = Array.make (Array.length faults) false in
  List.iter
    (fun pattern ->
      let good = Ls.run ls (Ls.words_of_pattern pattern) in
      Array.iteri
        (fun fid f ->
          match f.F.kind with
          | F.Transition _ ->
              if Fs.detect_word fs ~good f <> 0L then stuck_seen.(fid) <- true;
              if Fs.init_word fs ~good f <> 0L then init_seen.(fid) <- true;
              if stuck_seen.(fid) && init_seen.(fid) then detected.(fid) <- true
          | _ -> if Fs.detect_word fs ~good f <> 0L then detected.(fid) <- true)
        faults)
    g.Atpg.tests;
  Array.iteri
    (fun fid st ->
      if st = Atpg.Detected then
        Alcotest.(check bool)
          (Printf.sprintf "fault %d covered by generated tests" fid)
          true detected.(fid))
    g.Atpg.classification.Atpg.status

(* The escalation ladder: every fault it resolves gets its cold verdict,
   and the per-rung abort counts stay monotone. *)
let prop_escalate_cold =
  QCheck.Test.make ~name:"escalation verdicts = cold per-fault verdicts" ~count:4
    QCheck.(pair (int_range 1 100000) (int_range 18 28))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let faults = all_faults nl in
      let esc = Atpg.classify ~jobs:1 ~max_conflicts:1 nl faults in
      let monotone = function
        | [] -> true
        | l -> List.for_all2 ( >= ) l (List.tl l @ [ 0 ])
      in
      (match esc.Atpg.escalation with
      | Some st when not (monotone st.Atpg.aborted_per_rung) ->
          QCheck.Test.fail_report "aborted_per_rung not monotone"
      | Some _ | None -> ());
      let cold = Cold.statuses nl faults in
      Array.iteri
        (fun i a ->
          if a <> Atpg.Aborted && a <> cold.(i) then
            QCheck.Test.fail_reportf "fault %d: escalation and the cold reference disagree" i)
        esc.Atpg.status;
      true)

(* ------------------------------------------------------------------ *)
(* Encode sessions: invariants, pattern validity, budget re-solve       *)
(* ------------------------------------------------------------------ *)

let verdict_kind = function
  | Encode.Tests _ -> `Tests
  | Encode.Undetectable -> `Undetectable
  | Encode.Unknown -> `Unknown

let test_encode_session_invariants () =
  let nl = random_netlist 42 4 12 in
  let ls = Ls.prepare nl in
  let fs = Fs.prepare nl in
  let sess = Encode.make_session ls in
  Array.iter
    (fun f ->
      let v_inc = Encode.check_incr sess f in
      Solver.check_invariants (Encode.session_solver sess);
      Alcotest.(check bool)
        (Printf.sprintf "fault %d verdict kind" f.F.fault_id)
        true
        (verdict_kind v_inc = verdict_kind (Cold.check ls f));
      match v_inc with
      | Encode.Tests ts ->
          (* every pattern from the shared session must actually work *)
          let works test_of_word =
            List.exists
              (fun (t : Encode.test) ->
                let good = Ls.run ls (Ls.words_of_pattern t.Encode.values) in
                test_of_word ~good f <> 0L)
              ts
          in
          (match f.F.kind with
          | F.Transition _ ->
              Alcotest.(check bool)
                (Printf.sprintf "fault %d init covered" f.F.fault_id)
                true (works (Fs.init_word fs));
              Alcotest.(check bool)
                (Printf.sprintf "fault %d detect covered" f.F.fault_id)
                true (works (Fs.detect_word fs))
          | _ ->
              Alcotest.(check bool)
                (Printf.sprintf "fault %d detected by its pattern" f.F.fault_id)
                true (works (Fs.detect_word fs)))
      | Encode.Undetectable | Encode.Unknown -> ())
    (all_faults nl);
  Alcotest.(check int) "no pending parts at unbounded budget" 0 (Encode.pending_parts sess);
  let allocated, retired = Encode.activation_counts sess in
  Alcotest.(check bool) "session saw work" true (allocated > 0);
  Alcotest.(check int) "every activation group retired, pending or a live shared cone"
    allocated
    (retired + Encode.pending_parts sess + Encode.live_cones sess)

(* A budget-exhausted query stays pending and a later re-check of the same
   fault resolves it in place, to its cold verdict. *)
let test_encode_budget_re_solve () =
  let nl = random_netlist 9 4 26 in
  let ls = Ls.prepare nl in
  let sess = Encode.make_session ls in
  let faults = all_faults nl in
  let unknowns = ref [] in
  Array.iter
    (fun f ->
      match Encode.check_incr ~max_conflicts:1 sess f with
      | Encode.Unknown -> unknowns := f :: !unknowns
      | Encode.Tests _ | Encode.Undetectable -> ())
    faults;
  Alcotest.(check bool) "pending parts iff unknown verdicts" true
    ((Encode.pending_parts sess > 0) = (!unknowns <> []));
  (* the same session resolves them at full budget, matching the cold run *)
  List.iter
    (fun f ->
      let v = Encode.check_incr sess f in
      Solver.check_invariants (Encode.session_solver sess);
      Alcotest.(check bool)
        (Printf.sprintf "fault %d re-solve matches the cold run" f.F.fault_id)
        true
        (verdict_kind v = verdict_kind (Cold.check ls f)))
    !unknowns;
  Alcotest.(check int) "re-solve drained the pending set" 0 (Encode.pending_parts sess)

(* ------------------------------------------------------------------ *)
(* Failpoint: sat.solve site, kill/resume mid-session                  *)
(* ------------------------------------------------------------------ *)

let test_sat_solve_failpoint () =
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  let nl = random_netlist 7 4 10 in
  let faults = all_faults nl in
  let r_ref = Atpg.classify ~jobs:1 nl faults in
  Failpoint.enable ~after:3 "sat.solve" Failpoint.Raise;
  (match Atpg.classify ~jobs:1 nl faults with
  | _ -> Alcotest.fail "armed sat.solve site never fired"
  | exception Failpoint.Injected _ -> ());
  Alcotest.(check bool) "site counted hits" true (Failpoint.hit_count "sat.solve" > 3);
  Failpoint.clear ();
  let r = Atpg.classify ~jobs:1 nl faults in
  same_classification "after the injected crash" r_ref r;
  (* One failure mid-block: the supervised retry re-runs the block's
     still-unresolved faults on a fresh session and reaches the same
     classification. *)
  Failpoint.enable ~after:3 ~times:1 "sat.solve" Failpoint.Raise;
  let r = Atpg.classify ~jobs:1 nl faults in
  Alcotest.(check bool) "the failure fired" true (Failpoint.hit_count "sat.solve" > 3);
  same_classification "after one retried block" r_ref r

(* Kill a checkpointed campaign via the sat.solve site — mid-flight of a
   persistent incremental session, possibly inside a worker domain — and
   demand that the resume reproduces the uninterrupted run bit for bit. *)
let test_kill_resume_mid_sat_session () =
  let fresh_path () =
    let p = Filename.temp_file "dfm_sat_ckpt" ".ckpt" in
    Sys.remove p;
    p
  in
  Failpoint.clear ();
  let nl = Dfm_circuits.Circuits.build ~scale:0.25 "sparc_ffu" in
  let d0 = Design.implement nl in
  (* reference: uninterrupted checkpointed run, counting sat.solve hits *)
  let path_ref = fresh_path () in
  Failpoint.enable ~after:max_int "sat.solve" Failpoint.Raise;
  let r_ref = Resynth.run ~checkpoint:{ Resynth.path = path_ref; resume = false } d0 in
  let solves = Failpoint.hit_count "sat.solve" in
  Failpoint.clear ();
  Sys.remove path_ref;
  Alcotest.(check bool) "campaign issues SAT solves" true (solves > 0);
  let path = fresh_path () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  (* no [times] bound: every solve after the kill point raises, so worker
     retries and the sequential fallback die too and the campaign aborts *)
  Failpoint.enable ~after:(solves / 2) "sat.solve" Failpoint.Raise;
  (match Resynth.run ~checkpoint:{ Resynth.path; resume = false } d0 with
  | _ -> Alcotest.fail "kill point never fired"
  | exception Failpoint.Injected _ -> ());
  Failpoint.clear ();
  let r = Resynth.run ~checkpoint:{ Resynth.path; resume = true } d0 in
  Alcotest.(check string) "final netlist identical"
    (Netlist_io.to_string r_ref.Resynth.final.Design.netlist)
    (Netlist_io.to_string r.Resynth.final.Design.netlist);
  Alcotest.(check bool) "trace identical" true (r.Resynth.trace = r_ref.Resynth.trace);
  Alcotest.(check int) "accepted" r_ref.Resynth.accepted r.Resynth.accepted;
  Alcotest.(check bool) "effort identical" true (r.Resynth.effort = r_ref.Resynth.effort)

(* ------------------------------------------------------------------ *)
(* Pinned search effort                                                *)
(* ------------------------------------------------------------------ *)

(* The exact effort of a full [Design.implement ~jobs:1]: conflicts,
   decisions and propagations summed over every solve.  Any change to the
   order in which the solver visits watches, picks branch variables,
   reduces learnts or simplifies moves these numbers, so they pin the
   search step for step across rewrites of the solver's data layout.  A
   change that alters the search on purpose updates the constants.  The
   run's [sat_queries] (the faults the random-pattern phase left for SAT)
   pins the fault simulator's verdicts alongside. *)
let implement_effort nl =
  let c0, d0, p0 = Solver.totals () in
  let d = Design.implement ~jobs:1 nl in
  let c1, d1, p1 = Solver.totals () in
  ((c1 - c0, d1 - d0, p1 - p0), d.Design.classification.Atpg.counts.Atpg.sat_queries)

let check_effort name ~queries (c, d, p) nl =
  let (c', d', p'), q' = implement_effort nl in
  Alcotest.(check int) (name ^ ": conflicts") c c';
  Alcotest.(check int) (name ^ ": decisions") d d';
  Alcotest.(check int) (name ^ ": propagations") p p';
  Alcotest.(check int) (name ^ ": sat_queries") queries q'

let test_pinned_effort_aes () =
  check_effort "aes_core@0.5" ~queries:329 (16_446, 51_541, 577_389)
    (Dfm_circuits.Circuits.build ~scale:0.5 "aes_core")

let test_pinned_effort_examples () =
  check_effort "sparc_ffu_s025" ~queries:46 (400, 2_293, 6_893)
    (Examples.netlist "sparc_ffu_s025.nl");
  check_effort "sparc_spu_s025" ~queries:119 (472, 2_797, 9_868)
    (Examples.netlist "sparc_spu_s025.nl")

let suite =
  [
    Alcotest.test_case "pinned effort: example netlists" `Quick test_pinned_effort_examples;
    Alcotest.test_case "pinned effort: aes_core@0.5" `Slow test_pinned_effort_aes;
    QCheck_alcotest.to_alcotest prop_session_matches_oneshot;
    QCheck_alcotest.to_alcotest prop_assumption_solves;
    Alcotest.test_case "retire semantics" `Quick test_retire_semantics;
    Alcotest.test_case "arena collection mid-session" `Quick test_arena_collection;
    QCheck_alcotest.to_alcotest prop_modes_agree;
    QCheck_alcotest.to_alcotest prop_modes_agree_after_replace;
    Alcotest.test_case "generate = cold per-fault verdicts" `Quick test_generate_cold;
    QCheck_alcotest.to_alcotest prop_escalate_cold;
    Alcotest.test_case "encode session invariants" `Quick test_encode_session_invariants;
    Alcotest.test_case "budget re-solve in one session" `Quick test_encode_budget_re_solve;
    Alcotest.test_case "sat.solve failpoint" `Quick test_sat_solve_failpoint;
    Alcotest.test_case "kill/resume mid SAT session" `Slow test_kill_resume_mid_sat_session;
  ]

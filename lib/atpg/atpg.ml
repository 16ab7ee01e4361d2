module F = Dfm_faults.Fault
module Ls = Dfm_sim.Logic_sim
module Fs = Dfm_sim.Fault_sim
module Rng = Dfm_util.Rng
module Parallel = Dfm_util.Parallel
module Span = Dfm_obs.Span
module Metrics = Dfm_obs.Metrics
module Cert = Dfm_sat.Cert

(* Escalation-ladder metrics (see [ladder]); registered up front so the
   family is always present in the exposition. *)
let m_esc_rungs =
  Metrics.counter ~help:"Escalation ladder rungs executed" "dfm_escalation_rungs_total"

let m_esc_retried =
  Metrics.counter ~help:"Aborted faults retried on the escalation ladder"
    "dfm_escalation_retries_total"

let m_esc_resolved =
  Metrics.counter ~help:"Aborted faults resolved by escalation"
    "dfm_escalation_resolved_total"

let m_classified =
  Metrics.counter ~help:"Faults classified (including cache hits)"
    "dfm_atpg_faults_classified_total"

let m_carried =
  Metrics.counter ~help:"Faults whose verdict was carried in through [known]"
    "dfm_atpg_faults_carried_total"

(* Per-tenant attributable effort: SAT queries issued and wall time spent
   in the SAT phase, bumped where the work happens so worker domains are
   counted too. *)
let m_sat_queries =
  Metrics.attributed_counter ~help:"SAT queries issued by fault classification"
    "dfm_atpg_sat_queries_total"

let m_sat_ns =
  Metrics.attributed_counter
    ~help:"Nanoseconds spent in the SAT phase of fault classification"
    "dfm_atpg_sat_ns_total"

type status = Detected | Undetectable | Aborted

type counts = {
  total : int;
  detected : int;
  undetectable : int;
  aborted : int;
  undetectable_internal : int;
  undetectable_external : int;
  sat_queries : int;
}

type escalation_stats = {
  rungs : int;
  retried : int;
  resolved : int;
  residual : int;
  aborted_per_rung : int list;
}

type classification = {
  status : status array;
  counts : counts;
  escalation : escalation_stats option;
}

type generation = {
  classification : classification;
  tests : bool array list;
  cross_check_failures : int;
}

(* Shared campaign state.  SAT-phase tasks write the per-fault arrays at
   disjoint indices (each fault belongs to one SAT block); everything else
   is written by the coordinating domain only. *)
type state = {
  ls : Ls.t;
  fs : Fs.t;  (* the coordinator's simulator scratch *)
  faults : F.t array;
  st : int array;  (* 0 unresolved, 1 detected, 2 undetectable, 3 aborted *)
  tf_init : bool array;   (* transition frame-1 covered *)
  tf_stuck : bool array;  (* transition frame-2 covered *)
  mutable sat_queries : int;
  certify : bool;
  witness : bool array list array;
      (* certified mode only: per-fault detecting input patterns — the
         random-simulation pattern that first detected the fault, or the
         SAT models — re-verified by independent resimulation before the
         Detected verdict is reported.  Written at the fault's own index
         only, so SAT blocks stay disjoint. *)
}

let make_state ?(certify = false) nl faults =
  let ls = Ls.prepare nl in
  {
    ls;
    fs = Fs.prepare nl;
    faults;
    st = Array.make (Array.length faults) 0;
    tf_init = Array.make (Array.length faults) false;
    tf_stuck = Array.make (Array.length faults) false;
    sat_queries = 0;
    certify;
    witness = Array.make (max 1 (Array.length faults)) [];
  }

let resolve s fid v = if s.st.(fid) = 0 then s.st.(fid) <- v

let unresolved_count s =
  Array.fold_left (fun acc v -> if v = 0 then acc + 1 else acc) 0 s.st

let is_transition (f : F.t) = match f.F.kind with F.Transition _ -> true | _ -> false

(* Bit index of the least significant set bit ([w <> 0L]). *)
let lsb_bit w =
  let b = ref 0 and x = ref w in
  while Int64.logand !x 1L = 0L do
    x := Int64.shift_right_logical !x 1;
    incr b
  done;
  !b

(* Apply the detection evidence of one simulated word to fault [fid],
   through the coordinator's simulator scratch.  In certified mode the
   pattern words are snapshotted as the fault's detection witness the first
   time each detection condition is observed. *)
let apply_words s ~words ~good fid =
  let f = s.faults.(fid) in
  let snap w =
    if s.certify && w <> 0L then
      s.witness.(fid) <- Ls.pattern_of_words words (lsb_bit w) :: s.witness.(fid)
  in
  if is_transition f then begin
    let dw = Fs.detect_word s.fs ~good f in
    let iw = Fs.init_word s.fs ~good f in
    if dw <> 0L then begin
      if not s.tf_stuck.(fid) then snap dw;
      s.tf_stuck.(fid) <- true
    end;
    if iw <> 0L then begin
      if not s.tf_init.(fid) then snap iw;
      s.tf_init.(fid) <- true
    end;
    if s.tf_stuck.(fid) && s.tf_init.(fid) then resolve s fid 1
  end
  else begin
    let dw = Fs.detect_word s.fs ~good f in
    if dw <> 0L then begin
      snap dw;
      resolve s fid 1
    end
  end

let sim_block s ~words ~good =
  for fid = 0 to Array.length s.st - 1 do
    if s.st.(fid) = 0 then apply_words s ~words ~good fid
  done

(* Process-wide wall time spent in the SAT phase (session setup, per-fault
   encoding and solving — everything except the random-simulation
   prefilter), accumulated in nanoseconds across all domains. *)
let sat_seconds () = 1e-9 *. float_of_int (Metrics.counter_value (Metrics.attr_base m_sat_ns))

(* One SAT query per still-unresolved fault of [fids], all in the session
   [sess] (forced at the first query): the good-circuit CNF is encoded once
   and each fault adds only activation-guarded faulty-cone clauses, with
   learnt clauses carried from query to query.  A call writes only the
   slots of [fids]. *)
let sat_faults ?max_conflicts s sess fids =
  let t0 = Dfm_obs.Clock.now_ns () in
  let queries = ref 0 in
  Array.iter
    (fun fid ->
      if s.st.(fid) = 0 then begin
        incr queries;
        match Encode.check_incr ?max_conflicts (Lazy.force sess) s.faults.(fid) with
        | Encode.Tests pats ->
            (* Certified mode: the SAT models become the fault's witness,
               re-verified by resimulation once the campaign quiesces. *)
            if s.certify then
              s.witness.(fid) <- List.map (fun (t : Encode.test) -> t.Encode.values) pats;
            s.st.(fid) <- 1
        | Encode.Undetectable -> s.st.(fid) <- 2
        | Encode.Unknown -> s.st.(fid) <- 3
      end)
    fids;
  Metrics.incr_attr ~by:!queries m_sat_queries;
  Metrics.incr_attr ~by:(Int64.to_int (Int64.sub (Dfm_obs.Clock.now_ns ()) t0)) m_sat_ns

(* Certified mode: re-verify one Detected fault's witness patterns by
   independent good/faulty resimulation through the coordinator's scratch
   simulator.  Detection must reproduce (both frames, for transitions) or
   the campaign fails loudly rather than report an unverified verdict. *)
let verify_detected s fid =
  let t0 = Dfm_obs.Clock.now_ns () in
  let f = s.faults.(fid) in
  let det = ref false and init = ref false in
  List.iter
    (fun pat ->
      let good = Ls.run s.ls (Ls.words_of_pattern pat) in
      if Fs.detect_word s.fs ~good f <> 0L then det := true;
      if is_transition f && Fs.init_word s.fs ~good f <> 0L then init := true)
    s.witness.(fid);
  let ok = !det && ((not (is_transition f)) || !init) in
  Cert.note_check ~ok ~ns:(Int64.sub (Dfm_obs.Clock.now_ns ()) t0);
  if not ok then
    raise
      (Cert.Check_failed
         (Printf.sprintf "witness for fault %d (%s) does not reproduce detection" fid
            (F.describe (Ls.netlist s.ls) f)))

(* The ladder's budget multiplier per rung, and the cap on the sum of the
   budgets it grants. *)
let ladder_factor = 4
let ladder_cap = 1_000_000

(* The abort-budget escalation ladder documented at [classify]: rung k
   retries, at budget b_k = max_conflicts * ladder_factor^k, the longest
   prefix of the remaining aborts whose budgets keep the sum granted within
   [ladder_cap].  All rungs share one session, so learnt clauses and the
   still-live activation groups of retried faults carry from rung to rung.
   A budget below 1 climbs from 1.  Runs in the coordinating domain. *)
let ladder s ~max_conflicts =
  let aborted = List.filter (fun fid -> s.st.(fid) = 3) (List.init (Array.length s.st) Fun.id) in
  Span.with_ "atpg.escalate" ~attrs:[ ("aborted", string_of_int (List.length aborted)) ]
  @@ fun () ->
  let sess = lazy (Encode.make_session ~certify:s.certify s.ls) in
  (* [per_rung]: the aborts left after each rung, latest first *)
  let rec climb budget granted per_rung pending =
    let budget = if budget > max_int / ladder_factor then max_int else budget * ladder_factor in
    match min (List.length pending) ((ladder_cap - granted) / budget) with
    | 0 -> (List.rev per_rung, List.length pending)
    | fit ->
        let rung = Array.of_list (List.filteri (fun i _ -> i < fit) pending) in
        Array.iter (fun fid -> s.st.(fid) <- 0) rung;
        sat_faults ~max_conflicts:budget s sess rung;
        s.sat_queries <- s.sat_queries + fit;
        let still = List.filter (fun fid -> s.st.(fid) = 3) pending in
        climb budget (granted + (fit * budget)) (List.length still :: per_rung) still
  in
  let queries = s.sat_queries in
  let aborted_per_rung, residual = climb (max 1 max_conflicts) 0 [] aborted in
  let retried = s.sat_queries - queries and resolved = List.length aborted - residual in
  Metrics.incr ~by:(List.length aborted_per_rung) m_esc_rungs;
  Metrics.incr ~by:retried m_esc_retried;
  Metrics.incr ~by:resolved m_esc_resolved;
  { rungs = List.length aborted_per_rung; retried; resolved; residual; aborted_per_rung }

let finish_counts s =
  let detected = ref 0 and undet = ref 0 and aborted = ref 0 in
  let undet_int = ref 0 and undet_ext = ref 0 in
  let status =
    Array.mapi
      (fun fid v ->
        match v with
        | 1 ->
            incr detected;
            Detected
        | 2 ->
            incr undet;
            if F.is_internal s.faults.(fid) then incr undet_int else incr undet_ext;
            Undetectable
        | 3 ->
            incr aborted;
            Aborted
        | _ -> failwith "Atpg: unresolved fault at the end of a campaign")
      s.st
  in
  {
    status;
    counts =
      {
        total = Array.length s.faults;
        detected = !detected;
        undetectable = !undet;
        aborted = !aborted;
        undetectable_internal = !undet_int;
        undetectable_external = !undet_ext;
        sat_queries = s.sat_queries;
      };
    escalation = None;
  }

(* The SAT phase cuts the faults the random phase leaves unresolved, in
   fault order, into evenly sized blocks of at most [sat_block] queries,
   each searched on a fresh session.  The partition is a pure function of
   the fault list, so every query, and every conflict, decision and
   propagation, is the same at any job count. *)
let sat_block = 512

let sat_blocks pending =
  let n = Array.length pending in
  let nb = max 1 ((n + sat_block - 1) / sat_block) in
  Array.map
    (fun (lo, hi) -> Array.sub pending lo (hi - lo))
    (Parallel.chunk_bounds ~chunk:((n + nb - 1) / nb) n)

(* 64-pattern blocks of random simulation before the SAT phase. *)
let random_blocks = 16

let classify ?(seed = 1) ?max_conflicts ?jobs ?cache ?(certify = false) ?known nl faults =
  Span.with_ "atpg.classify"
    ~attrs:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () ->
  let nf = Array.length faults in
  Metrics.incr ~by:nf m_classified;
  let jobs = match jobs with Some j -> j | None -> Parallel.default_jobs () in
  let s = make_state ~certify nl faults in
  (* The carried and cached verdicts, taken as given: no witness, no
     publication.  Carried ones are resolved first, never looked up. *)
  let given = Array.make (max 1 nf) false in
  let carried =
    match known with
    | None -> 0
    | Some known ->
        if Array.length known <> nf then invalid_arg "Atpg.classify: known has the wrong length";
        let n = ref 0 in
        Array.iteri
          (fun fid v ->
            match v with
            | Some (Detected | Undetectable as v) ->
                incr n;
                given.(fid) <- true;
                s.st.(fid) <- (if v = Detected then 1 else 2)
            | Some Aborted | None -> ())
          known;
        !n
  in
  Metrics.incr ~by:carried m_carried;
  Span.note "carried" (string_of_int carried);
  (* Cache consultation happens here in the coordinating domain, before any
     task runs, so both phases see the same per-fault work in every
     configuration.  Only semantic verdicts come out of the store (no
     Aborted), so a hit can only skip the work the phases below would have
     spent re-deriving the same verdict.  [fresh] lists the faults the cache
     is consulted for, and [sigs] holds their signatures, in that order. *)
  let fresh =
    if cache = None then [||]
    else Array.of_list (List.filter (fun fid -> s.st.(fid) = 0) (List.init nf Fun.id))
  in
  let sigs =
    match cache with
    | None -> [||]
    | Some c ->
        let sigs =
          Dfm_incr.Cache.signatures ?max_conflicts nl (Array.map (Array.get faults) fresh)
        in
        (* In certified mode only entries published by a certified run (and
           whose stored certificate mark validated on load) are trusted; the
           digest validation is the cached verdict's certificate. *)
        let find sg =
          if certify then Dfm_incr.Cache.find_certified c sg else Dfm_incr.Cache.find c sg
        in
        Array.iteri
          (fun i sg ->
            let fid = fresh.(i) in
            match find sg with
            | Some v ->
                if certify then Cert.note_check ~ok:true ~ns:0L;
                given.(fid) <- true;
                s.st.(fid) <- (if v = Dfm_incr.Store.Detected then 1 else 2)
            | None -> ())
          sigs;
        sigs
  in
  (* The UDFM lazy caches must not be forced for the first time inside a
     worker domain. *)
  Dfm_cellmodel.Udfm.preload ();
  (* Random phase, in the coordinating domain: pattern words, the
     fault-free simulation and every fault's detection words. *)
  let rng = Rng.create (seed + 77) in
  Span.with_ "atpg.random" (fun () ->
      let blocks = ref 0 in
      let before = unresolved_count s in
      let left = ref before in
      while !blocks < random_blocks && !left > 0 do
        incr blocks;
        let words = Ls.random_words s.ls rng in
        let good = Ls.run s.ls words in
        sim_block s ~words ~good;
        left := unresolved_count s
      done;
      Fs.publish_counts s.fs;
      Span.note "blocks" (string_of_int !blocks);
      Span.note "resolved" (string_of_int (before - !left)));
  (* SAT phase: one task per block, each on a fresh session made inside
     the task.  Tasks only write the st/witness slots of their own faults,
     and re-running one reaches the same slots on a fresh session, hence
     restartable — which is what lets [Parallel.run] retry a task that
     raised (a poisoned task degrades throughput, never the verdicts).  The
     query count is the number of faults entering the phase unresolved,
     counted up front so a retry (which re-queries only the block's
     still-unresolved faults) cannot skew the effort accounting. *)
  let pending =
    Array.of_list (List.filter (fun fid -> s.st.(fid) = 0) (List.init nf Fun.id))
  in
  s.sat_queries <- Array.length pending;
  Parallel.run ~jobs
    (Array.mapi
       (fun b fids () ->
         Span.with_ "classify.shard"
           ~attrs:[ ("block", string_of_int b); ("queries", string_of_int (Array.length fids)) ]
           (fun () ->
             sat_faults ?max_conflicts s (lazy (Encode.make_session ~certify s.ls)) fids))
       (sat_blocks pending));
  (* A bounded budget's aborts climb the ladder before the verdicts are
     certified and published, so both loops below cover them too. *)
  let escalation =
    match max_conflicts with
    | Some max_conflicts when Array.mem 3 s.st -> Some (ladder s ~max_conflicts)
    | Some _ | None -> None
  in
  (* Certified mode: every freshly detected fault's witness patterns are
     re-verified by independent resimulation before the verdict is reported
     or published.  Runs in the coordinating domain, in fault order, so the
     check count and any failure are identical for every job count.  Given
     verdicts carry no patterns: a carried one's certificate is the caller's
     (the campaign's region proof), a cached one's the validated digest. *)
  if certify then begin
    for fid = 0 to nf - 1 do
      if s.st.(fid) = 1 && not given.(fid) then verify_detected s fid
    done;
    Fs.publish_counts s.fs
  end;
  (* Publish the freshly derived verdicts (never the carried or cached ones,
     and never Aborted: an abort is a budget artifact, not a semantic fact).
     Escalated verdicts go under the same [max_conflicts] signatures: the
     verdict is semantic, and that is the key the next same-budget campaign
     looks up. *)
  (match cache with
  | None -> ()
  | Some c ->
      Array.iteri
        (fun i sg ->
          let fid = fresh.(i) in
          if not given.(fid) then
            match s.st.(fid) with
            | 1 -> Dfm_incr.Cache.record ~certified:certify c sg Dfm_incr.Store.Detected
            | 2 -> Dfm_incr.Cache.record ~certified:certify c sg Dfm_incr.Store.Undetectable
            | _ -> ())
        sigs);
  { (finish_counts s) with escalation }

(* ------------------------------------------------------------------ *)
(* Test generation with fault dropping and greedy per-word compaction  *)
(* ------------------------------------------------------------------ *)

let bit b w = Int64.logand (Int64.shift_right_logical w b) 1L = 1L

let generate nl faults =
  Span.with_ "atpg.generate" ~attrs:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () ->
  let s = make_state nl faults in
  (* Generation is sequential (coordinator only), so a single session can
     serve every fault's query. *)
  let sess = lazy (Encode.make_session s.ls) in
  let rng = Rng.create 178 in
  let nf = Array.length faults in
  let tests = ref [] in
  let cross_fail = ref 0 in
  let dws = Array.make nf 0L and iws = Array.make nf 0L in
  (* Turn one SAT test into a 64-variant word, pick the bit position that
     resolves the most faults, record that pattern, and drop. *)
  let apply_test (t : Encode.test) ~target =
    let words =
      Array.of_list
        (List.mapi
           (fun i (_, _) ->
             if t.Encode.cared.(i) then if t.Encode.values.(i) then -1L else 0L
             else Rng.bits64 rng)
           (Ls.inputs s.ls))
    in
    let good = Ls.run s.ls words in
    for fid = 0 to nf - 1 do
      if s.st.(fid) = 0 then begin
        dws.(fid) <- Fs.detect_word s.fs ~good faults.(fid);
        iws.(fid) <- (if is_transition faults.(fid) then Fs.init_word s.fs ~good faults.(fid) else 0L)
      end
      else begin
        dws.(fid) <- 0L;
        iws.(fid) <- 0L
      end
    done;
    (* Count prospective resolutions per bit position. *)
    let gain = Array.make 64 0 in
    for fid = 0 to nf - 1 do
      if s.st.(fid) = 0 then begin
        let w =
          if is_transition faults.(fid) then begin
            (* A bit helps if it completes the pair. *)
            if s.tf_init.(fid) then dws.(fid)
            else if s.tf_stuck.(fid) then iws.(fid)
            else Int64.logand dws.(fid) iws.(fid)
          end
          else dws.(fid)
        in
        let w = ref w in
        while !w <> 0L do
          let lsb = Int64.logand !w (Int64.neg !w) in
          let b = ref 0 in
          let x = ref lsb in
          while Int64.logand !x 1L = 0L do
            x := Int64.shift_right_logical !x 1;
            incr b
          done;
          gain.(!b) <- gain.(!b) + 1;
          w := Int64.logxor !w lsb
        done
      end
    done;
    let best = ref 0 in
    for b = 1 to 63 do
      if gain.(b) > gain.(!best) then best := b
    done;
    let b = !best in
    (* The target must be covered at the chosen bit (its cared inputs are
       identical in every bit position); a miss is an engine disagreement. *)
    (if s.st.(target) = 0 then
       let covered =
         if is_transition faults.(target) then bit b dws.(target) || bit b iws.(target)
         else bit b dws.(target)
       in
       if not covered then incr cross_fail);
    tests := Ls.pattern_of_words words b :: !tests;
    let mask = Int64.shift_left 1L b in
    for fid = 0 to nf - 1 do
      if s.st.(fid) = 0 then begin
        if is_transition faults.(fid) then begin
          if Int64.logand mask dws.(fid) <> 0L then s.tf_stuck.(fid) <- true;
          if Int64.logand mask iws.(fid) <> 0L then s.tf_init.(fid) <- true;
          if s.tf_stuck.(fid) && s.tf_init.(fid) then resolve s fid 1
        end
        else if Int64.logand mask dws.(fid) <> 0L then resolve s fid 1
      end
    done
  in
  for fid = 0 to nf - 1 do
    if s.st.(fid) = 0 then begin
      s.sat_queries <- s.sat_queries + 1;
      match Encode.check_incr (Lazy.force sess) faults.(fid) with
      | Encode.Undetectable -> resolve s fid 2
      | Encode.Unknown -> resolve s fid 3
      | Encode.Tests pats ->
          List.iter (fun t -> apply_test t ~target:fid) pats;
          (* The SAT engine proved detectability; if simulation-based dropping
             somehow missed the target, trust the proof but flag it. *)
          if s.st.(fid) = 0 then begin
            incr cross_fail;
            resolve s fid 1
          end
    end
  done;
  Fs.publish_counts s.fs;
  { classification = finish_counts s; tests = List.rev !tests; cross_check_failures = !cross_fail }

let coverage c = 100.0 *. (1.0 -. (float_of_int c.undetectable /. float_of_int (max 1 c.total)))

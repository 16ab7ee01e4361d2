(* Certification tests: pristine certificates always pass, corrupted ones
   never pass (checker soundness / no false accepts), and certified engine
   runs stay bit-identical to uncertified ones. *)

module Solver = Dfm_sat.Solver
module Cert = Dfm_sat.Cert
module Failpoint = Dfm_util.Failpoint

let arb_cnf =
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "n=%d %s" n
        (String.concat " ; "
           (List.map (fun c -> String.concat " " (List.map string_of_int c)) cs)))
    QCheck.Gen.(
      int_range 1 10 >>= fun nvars ->
      list_size (int_range 1 40)
        (list_size (int_range 1 3)
           (map (fun (v, s) -> if s then v + 1 else -(v + 1)) (pair (int_bound (nvars - 1)) bool)))
      >>= fun clauses -> return (nvars, clauses))

(* CNF plus a small assumption set, the shape every ATPG query has. *)
let arb_cnf_assumptions =
  QCheck.make
    ~print:(fun ((n, cs), assumptions) ->
      Printf.sprintf "n=%d %s | assume %s" n
        (String.concat " ; "
           (List.map (fun c -> String.concat " " (List.map string_of_int c)) cs))
        (String.concat " " (List.map string_of_int assumptions)))
    QCheck.Gen.(
      int_range 2 10 >>= fun nvars ->
      list_size (int_range 1 40)
        (list_size (int_range 1 3)
           (map (fun (v, s) -> if s then v + 1 else -(v + 1)) (pair (int_bound (nvars - 1)) bool)))
      >>= fun clauses ->
      list_size (int_range 0 3)
        (map (fun (v, s) -> if s then v + 1 else -(v + 1)) (pair (int_bound (nvars - 1)) bool))
      >>= fun assumptions -> return ((nvars, clauses), assumptions))

(* Ground-truth implication oracle: DB ⊨ clause iff DB ∧ ¬clause is UNSAT.
   Uses a fresh solver — independent from the checker under test. *)
let implied_by clauses lits =
  let s = Solver.create () in
  List.iter (Solver.add_clause s) clauses;
  List.iter (fun l -> Solver.add_clause s [ -l ]) lits;
  Solver.solve s = Solver.Unsat

(* ---- pristine certificates ------------------------------------------- *)

let prop_pristine =
  QCheck.Test.make ~name:"pristine certificates always check" ~count:300 arb_cnf_assumptions
    (fun ((_, clauses), assumptions) ->
      let s = Solver.create () in
      let cert = Cert.create s in
      List.iter (Solver.add_clause s) clauses;
      (match Solver.solve ~assumptions s with
      | Solver.Sat -> Cert.check_model cert ~assumptions ~value:(Solver.value s)
      | Solver.Unsat -> Cert.check_unsat cert ~assumptions
      | Solver.Unknown -> ());
      true)

let prop_pristine_incremental =
  (* Several solves against one growing CNF, one certification session:
     the per-query checks must keep passing as clauses accumulate. *)
  QCheck.Test.make ~name:"pristine certificates across incremental solves" ~count:150
    arb_cnf (fun (_, clauses) ->
      let s = Solver.create () in
      let cert = Cert.create s in
      let rec chunks = function
        | [] -> []
        | l ->
            let n = min 8 (List.length l) in
            List.filteri (fun i _ -> i < n) l :: chunks (List.filteri (fun i _ -> i >= n) l)
      in
      List.iter
        (fun chunk ->
          List.iter (Solver.add_clause s) chunk;
          match Solver.solve s with
          | Solver.Sat -> Cert.check_model cert ~assumptions:[] ~value:(Solver.value s)
          | Solver.Unsat -> Cert.check_unsat cert ~assumptions:[]
          | Solver.Unknown -> ())
        (chunks clauses);
      true)

(* ---- no false accepts ------------------------------------------------- *)

let prop_no_unsat_forgery =
  (* A satisfiable instance must never yield a passing UNSAT certificate,
     no matter what the trace contains: the checker's final conflict check
     cannot be forged because admitted steps are true consequences. *)
  QCheck.Test.make ~name:"UNSAT cannot be certified for a SAT instance" ~count:300
    arb_cnf_assumptions (fun ((_, clauses), assumptions) ->
      let s = Solver.create () in
      let cert = Cert.create s in
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve ~assumptions s with
      | Solver.Sat ->
          (match Cert.check_unsat cert ~assumptions with
          | () -> false (* forged certificate accepted: checker is broken *)
          | exception Cert.Check_failed _ -> true)
      | Solver.Unsat | Solver.Unknown -> QCheck.assume_fail ())

let mutate_lits rand lits =
  match lits with
  | [] -> [ 1 ]
  | _ ->
      let arr = Array.of_list lits in
      let i = Random.State.int rand (Array.length arr) in
      (match Random.State.int rand 3 with
      | 0 -> arr.(i) <- -arr.(i)
      | 1 -> arr.(i) <- ((Random.State.int rand 10 + 1) * if Random.State.bool rand then 1 else -1)
      | _ -> arr.(i) <- arr.(if i = 0 then Array.length arr - 1 else 0));
      Array.to_list arr

let prop_mutated_learnt_sound =
  (* Corrupt learnt proof steps at random; the checker may only admit a
     mutant that is a genuine consequence (oracle: an independent solver).
     Admitting a non-consequence would be a false accept. *)
  QCheck.Test.make ~name:"mutated learnt steps: no false accepts" ~count:200 arb_cnf
    (fun (_, clauses) ->
      let rand = Random.State.make [| Hashtbl.hash clauses |] in
      let s = Solver.create () in
      let steps = ref [] in
      Solver.set_trace s (Some (fun ev -> steps := ev :: !steps));
      List.iter (Solver.add_clause s) clauses;
      ignore (Solver.solve s : Solver.result);
      let ok = ref true in
      let check = Cert.Check.create () in
      List.iter
        (function
          | Solver.Trace_original lits -> Cert.Check.add_original check lits
          | Solver.Trace_learnt lits ->
              let mutant = if Random.State.int rand 2 = 0 then mutate_lits rand lits else lits in
              let accepted = Cert.Check.add_learnt check mutant in
              if accepted && not (implied_by clauses mutant) then ok := false)
        (List.rev !steps);
      !ok)

let prop_mutated_model_sound =
  (* Flip model bits; the checker must accept exactly the assignments that
     really satisfy the CNF (direct evaluation as the oracle). *)
  QCheck.Test.make ~name:"mutated models: accept iff genuinely satisfying" ~count:300
    arb_cnf (fun (nvars, clauses) ->
      let s = Solver.create () in
      let cert = Cert.create s in
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Sat ->
          let rand = Random.State.make [| Hashtbl.hash clauses |] in
          let flip = 1 + Random.State.int rand (max 1 nvars) in
          let value v = if v = flip then not (Solver.value s v) else Solver.value s v in
          let truly_sat =
            List.for_all
              (fun c -> List.exists (fun l -> if l > 0 then value l else not (value (-l))) c)
              clauses
          in
          let accepted =
            match Cert.check_model cert ~assumptions:[] ~value with
            | () -> true
            | exception Cert.Check_failed _ -> false
          in
          accepted = truly_sat
      | Solver.Unsat | Solver.Unknown -> QCheck.assume_fail ())

let test_checker_rejects_non_consequence () =
  let check = Cert.Check.create () in
  Cert.Check.add_original check [ 1; 2 ];
  Cert.Check.add_original check [ -1; 2 ];
  Alcotest.(check bool) "2 is RUP" true (Cert.Check.add_learnt check [ 2 ]);
  Alcotest.(check bool) "1 is not a consequence" false (Cert.Check.add_learnt check [ 1 ]);
  Alcotest.(check bool) "3 is unconstrained" false (Cert.Check.add_learnt check [ 3 ]);
  Alcotest.(check bool) "not unsat" false (Cert.Check.proved_unsat check);
  Alcotest.(check bool) "unsat under -2" true (Cert.Check.check_unsat check ~assumptions:[ -2 ])

let test_empty_clause_certified () =
  let s = Solver.create () in
  let cert = Cert.create s in
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -1 ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Cert.check_unsat cert ~assumptions:[];
  Alcotest.(check bool) "checker proved unsat" true
    (Cert.Check.proved_unsat (Cert.checker cert))

let test_pigeonhole_certifies () =
  (* Pigeonhole 4-into-3: a small but genuinely worked-for UNSAT proof, so
     the check replays many learnt steps. *)
  let s = Solver.create () in
  let cert = Cert.create s in
  let var p h = (p * 3) + h + 1 in
  for p = 0 to 3 do
    Solver.add_clause s [ var p 0; var p 1; var p 2 ]
  done;
  for h = 0 to 2 do
    for p = 0 to 3 do
      for q = p + 1 to 3 do
        Solver.add_clause s [ -(var p h); -(var q h) ]
      done
    done
  done;
  Alcotest.(check bool) "pigeonhole unsat" true (Solver.solve s = Solver.Unsat);
  Cert.check_unsat cert ~assumptions:[]

(* ---- certified classification: bit-identity, jobs invariance ---------- *)

module N = Dfm_netlist.Netlist
module B = N.Builder
module F = Dfm_faults.Fault
module Atpg = Dfm_atpg.Atpg
module Store = Dfm_incr.Store
module H = Dfm_util.Hash64

let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 }

(* The classic redundancy: n2 = NAND(a, not a) is constant 1, so the fault
   mix below yields both Detected and Undetectable verdicts — the certified
   run exercises witness resimulation AND UNSAT proof replay. *)
let redundant_circuit () =
  let b = B.create ~name:"redund" Dfm_cellmodel.Osu018.library in
  let a = B.add_pi b "a" in
  let c = B.add_pi b "c" in
  let n1 = B.add_gate b ~cell:"INVX1" [| a |] in
  let n2 = B.add_gate b ~cell:"NAND2X1" [| a; n1 |] in
  let n3 = B.add_gate b ~cell:"NAND2X1" [| n2; c |] in
  B.mark_po b "y" n3;
  (B.finish b, n2)

let mixed_faults nl n2 =
  let faults = ref [] in
  let id = ref 0 in
  let push kind =
    faults := { F.fault_id = !id; kind; origin } :: !faults;
    incr id
  in
  Array.iter
    (fun (nn : N.net) ->
      push (F.Stuck (F.On_net nn.N.net_id, F.Sa0));
      push (F.Stuck (F.On_net nn.N.net_id, F.Sa1)))
    nl.N.nets;
  push (F.Transition (F.On_net n2, F.Slow_to_rise));
  push (F.Transition (F.On_net n2, F.Slow_to_fall));
  Array.of_list (List.rev !faults)

let test_certified_classification_identity () =
  let nl, n2 = redundant_circuit () in
  let faults = mixed_faults nl n2 in
  let plain = Atpg.classify ~jobs:1 nl faults in
  let t0 = Cert.totals () in
  let c1 = Atpg.classify ~jobs:1 ~certify:true nl faults in
  let t1 = Cert.totals () in
  let c4 = Atpg.classify ~jobs:4 ~certify:true nl faults in
  let t2 = Cert.totals () in
  Alcotest.(check bool) "statuses identical (jobs 1)" true (c1.Atpg.status = plain.Atpg.status);
  Alcotest.(check bool) "counts identical (jobs 1)" true (c1.Atpg.counts = plain.Atpg.counts);
  Alcotest.(check bool) "statuses identical (jobs 4)" true (c4.Atpg.status = plain.Atpg.status);
  Alcotest.(check bool) "counts identical (jobs 4)" true (c4.Atpg.counts = plain.Atpg.counts);
  let d1 = t1.Cert.checked - t0.Cert.checked in
  let d4 = t2.Cert.checked - t1.Cert.checked in
  Alcotest.(check bool) "certified run performed checks" true (d1 > 0);
  Alcotest.(check int) "verdict-level check count is jobs-invariant" d1 d4;
  Alcotest.(check int) "no check failed" t0.Cert.failed t2.Cert.failed

(* ---- store disk-full degradation -------------------------------------- *)

let test_store_enospc_degrades () =
  Failpoint.clear ();
  let path = Filename.temp_file "dfm_cert_store" ".bin" in
  let s = Store.create ~path ~log:(fun _ -> ()) () in
  Failpoint.enable "store.enospc" Failpoint.Io_error;
  Fun.protect ~finally:Failpoint.clear (fun () ->
      (* The injected ENOSPC must degrade the disk tier, never raise. *)
      Store.add s 1L Store.Detected;
      Store.add ~certified:true s 2L Store.Undetectable);
  let st = Store.stats s in
  Alcotest.(check bool) "store degraded to memory-only" true st.Store.degraded;
  Alcotest.(check bool) "memory tier still serves lookups" true
    (Store.find s 1L = Some Store.Detected && Store.find_certified s 2L = Some Store.Undetectable);
  Alcotest.(check bool) "degraded gauge raised" true
    (match Dfm_obs.Metrics.find_value "dfm_store_degraded" with
    | Some (Dfm_obs.Metrics.Gauge 1) -> true
    | _ -> false);
  (* Degraded stores keep accepting entries. *)
  Store.add s 3L Store.Undetectable;
  Alcotest.(check bool) "post-degradation adds visible" true
    (Store.find s 3L = Some Store.Undetectable);
  Store.close s;
  Sys.remove path

(* ---- cache certificate marks ------------------------------------------ *)

let test_store_certified_visibility () =
  let path = Filename.temp_file "dfm_cert_marks" ".bin" in
  Sys.remove path;
  let s = Store.create ~path ~log:(fun _ -> ()) () in
  Store.add ~certified:true s 10L Store.Undetectable;
  Store.add s 11L Store.Detected;
  Alcotest.(check bool) "certified entry visible to certified lookup" true
    (Store.find_certified s 10L = Some Store.Undetectable);
  Alcotest.(check bool) "uncertified entry is a certified miss" true
    (Store.find_certified s 11L = None);
  Alcotest.(check bool) "…but a plain hit" true (Store.find s 11L = Some Store.Detected);
  Store.close s;
  (* Marks persist: a reload keeps the certified/uncertified distinction. *)
  let s2 = Store.create ~path ~log:(fun _ -> ()) () in
  Alcotest.(check bool) "certified survives reload" true
    (Store.find_certified s2 10L = Some Store.Undetectable);
  Alcotest.(check bool) "uncertified still a certified miss after reload" true
    (Store.find_certified s2 11L = None && Store.find s2 11L = Some Store.Detected);
  Alcotest.(check int) "nothing dropped" 0 (Store.stats s2).Store.disk_dropped;
  Store.close s2;
  Sys.remove path

let magic = "DFMVC02\n"

(* A hand-crafted certified record whose journal checksum is valid but
   whose certificate mark is wrong: exercises the mark-verification branch
   specifically (a flipped byte would fail the checksum first). *)
let forged_record sg vcode =
  let b = Bytes.create 17 in
  Bytes.set_int64_le b 0 sg;
  Bytes.set_uint8 b 8 vcode;
  let mark = H.finalize (H.mix (H.mix (H.of_string "DFMCERTv2") sg) (H.of_int vcode)) in
  Bytes.set_int64_le b 9 (Int64.logxor mark 1L);
  Dfm_util.Journal.encode (Bytes.to_string b)

let test_store_corrupt_mark_rejected () =
  let path = Filename.temp_file "dfm_cert_forged" ".bin" in
  let oc = open_out_bin path in
  output_string oc magic;
  output_string oc (forged_record 42L 1);
  close_out oc;
  let s = Store.create ~path ~log:(fun _ -> ()) () in
  Alcotest.(check int) "forged record dropped" 1 (Store.stats s).Store.disk_dropped;
  Alcotest.(check bool) "forged verdict not trusted at any level" true
    (Store.find_certified s 42L = None && Store.find s 42L = None);
  Store.close s;
  Sys.remove path

let test_store_flipped_byte_rejected () =
  let path = Filename.temp_file "dfm_cert_flip" ".bin" in
  Sys.remove path;
  let s = Store.create ~path ~log:(fun _ -> ()) () in
  Store.add ~certified:true s 77L Store.Undetectable;
  Store.close s;
  (* Flip one byte inside the stored certificate mark. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (String.length magic + 13) Unix.SEEK_SET : int);
  let byte = Bytes.create 1 in
  ignore (Unix.read fd byte 0 1 : int);
  Bytes.set_uint8 byte 0 (Bytes.get_uint8 byte 0 lxor 0xff);
  ignore (Unix.lseek fd (String.length magic + 13) Unix.SEEK_SET : int);
  ignore (Unix.write fd byte 0 1 : int);
  Unix.close fd;
  let s2 = Store.create ~path ~log:(fun _ -> ()) () in
  Alcotest.(check bool) "corrupted record dropped on load" true
    ((Store.stats s2).Store.disk_dropped >= 1);
  Alcotest.(check bool) "corrupted verdict not served" true
    (Store.find_certified s2 77L = None && Store.find s2 77L = None);
  Store.close s2;
  Sys.remove path

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pristine;
    QCheck_alcotest.to_alcotest prop_pristine_incremental;
    QCheck_alcotest.to_alcotest prop_no_unsat_forgery;
    QCheck_alcotest.to_alcotest prop_mutated_learnt_sound;
    QCheck_alcotest.to_alcotest prop_mutated_model_sound;
    Alcotest.test_case "checker rejects non-consequences" `Quick
      test_checker_rejects_non_consequence;
    Alcotest.test_case "empty clause certified" `Quick test_empty_clause_certified;
    Alcotest.test_case "pigeonhole proof certifies" `Quick test_pigeonhole_certifies;
    Alcotest.test_case "certified classification: bit-identical, jobs-invariant" `Quick
      test_certified_classification_identity;
    Alcotest.test_case "store.enospc: disk tier degrades to memory-only" `Quick
      test_store_enospc_degrades;
    Alcotest.test_case "certified cache entries: visibility and persistence" `Quick
      test_store_certified_visibility;
    Alcotest.test_case "forged certificate mark rejected on load" `Quick
      test_store_corrupt_mark_rejected;
    Alcotest.test_case "flipped byte in certified record rejected" `Quick
      test_store_flipped_byte_rejected;
  ]

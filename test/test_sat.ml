(* Tests for dfm_sat: solver vs brute force, Tseitin encoders, incremental
   use, assumptions. *)

module Solver = Dfm_sat.Solver
module Tseitin = Dfm_sat.Tseitin
module Tt = Dfm_logic.Truthtable

let brute_sat nvars clauses =
  let rec try_assignment m =
    if m >= 1 lsl nvars then false
    else
      let satisfied =
        List.for_all
          (fun c ->
            List.exists
              (fun l ->
                let v = (m lsr (abs l - 1)) land 1 = 1 in
                if l > 0 then v else not v)
              c)
          clauses
      in
      satisfied || try_assignment (m + 1)
  in
  try_assignment 0

let arb_cnf =
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "n=%d %s" n
        (String.concat " ; " (List.map (fun c -> String.concat " " (List.map string_of_int c)) cs)))
    QCheck.Gen.(
      int_range 1 10 >>= fun nvars ->
      list_size (int_range 1 30)
        (list_size (int_range 1 3)
           (map (fun (v, s) -> if s then v + 1 else -(v + 1)) (pair (int_bound (nvars - 1)) bool)))
      >>= fun clauses -> return (nvars, clauses))

let prop_solver_vs_brute =
  QCheck.Test.make ~name:"CDCL agrees with brute force" ~count:300 arb_cnf
    (fun (nvars, clauses) ->
      let s = Solver.create () in
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Sat ->
          (* The model must satisfy every clause. *)
          List.for_all (fun c -> List.exists (Solver.lit_value s) c) clauses
      | Solver.Unsat -> not (brute_sat nvars clauses)
      | Solver.Unknown -> false)

let prop_assumptions =
  QCheck.Test.make ~name:"solving under assumptions = adding units" ~count:200 arb_cnf
    (fun (nvars, clauses) ->
      QCheck.assume (nvars >= 2);
      let assumptions = [ 1; -2 ] in
      let s1 = Solver.create () in
      List.iter (Solver.add_clause s1) clauses;
      let r1 = Solver.solve ~assumptions s1 in
      let s2 = Solver.create () in
      List.iter (Solver.add_clause s2) clauses;
      List.iter (fun l -> Solver.add_clause s2 [ l ]) assumptions;
      let r2 = Solver.solve s2 in
      (r1 = Solver.Sat) = (r2 = Solver.Sat))

let test_empty_clause_unsat () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_trivial_sat () =
  let s = Solver.create () in
  Alcotest.(check bool) "no clauses" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ 1 ];
  Alcotest.(check bool) "unit" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "value" true (Solver.value s 1)

let test_incremental_after_solve () =
  (* Adding clauses after a SAT answer must remain sound. *)
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  Alcotest.(check bool) "sat 1" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ -1 ];
  Solver.add_clause s [ -2 ];
  Alcotest.(check bool) "now unsat" true (Solver.solve s = Solver.Unsat)

let test_pigeonhole_unsat () =
  (* 4 pigeons in 3 holes: classic small UNSAT exercising clause learning.
     Variable p(i,h) = 3*i + h + 1. *)
  let s = Solver.create () in
  let v i h = (3 * i) + h + 1 in
  for i = 0 to 3 do
    Solver.add_clause s [ v i 0; v i 1; v i 2 ]
  done;
  for h = 0 to 2 do
    for i = 0 to 3 do
      for j = i + 1 to 3 do
        Solver.add_clause s [ -(v i h); -(v j h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(4,3) unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "did some search" true (Solver.num_conflicts s > 0)

let test_max_conflicts_budget () =
  (* A harder pigeonhole with a tiny budget must return Unknown (or finish
     legitimately if it is fast; both are acceptable, never a wrong answer). *)
  let s = Solver.create () in
  let n = 7 in
  let v i h = (n * i) + h + 1 in
  for i = 0 to n do
    Solver.add_clause s (List.init n (fun h -> v i h))
  done;
  for h = 0 to n - 1 do
    for i = 0 to n do
      for j = i + 1 to n do
        Solver.add_clause s [ -(v i h); -(v j h) ]
      done
    done
  done;
  match Solver.solve ~max_conflicts:5 s with
  | Solver.Unknown | Solver.Unsat -> ()
  | Solver.Sat -> Alcotest.fail "php(8,7) cannot be SAT"

(* Tseitin encoders: for every gate type, the encoded relation matches the
   semantics on all input combinations. *)
let check_gate_encoding name encode semantics arity =
  for m = 0 to (1 lsl arity) - 1 do
    for out_val = 0 to 1 do
      let s = Solver.create () in
      let ins = List.init arity (fun i -> i + 1) in
      let out = arity + 1 in
      Solver.ensure_vars s (arity + 1);
      encode s ~out ins;
      List.iteri
        (fun i v -> Solver.add_clause s [ (if (m lsr i) land 1 = 1 then v else -v) ])
        ins;
      Solver.add_clause s [ (if out_val = 1 then out else -out) ];
      let expect = semantics (List.init arity (fun i -> (m lsr i) land 1 = 1)) = (out_val = 1) in
      let got = Solver.solve s = Solver.Sat in
      if got <> expect then
        Alcotest.failf "%s: inputs %d out %d: expected %b" name m out_val expect
    done
  done

let test_tseitin_and () =
  check_gate_encoding "and" (fun s ~out ins -> Tseitin.and_ s ~out ins)
    (List.for_all (fun b -> b))
    3

let test_tseitin_or () =
  check_gate_encoding "or" (fun s ~out ins -> Tseitin.or_ s ~out ins)
    (List.exists (fun b -> b))
    3

let test_tseitin_xor () =
  check_gate_encoding "xor"
    (fun s ~out ins ->
      match ins with [ a; b ] -> Tseitin.xor_ s ~out a b | _ -> assert false)
    (fun vs -> List.fold_left ( <> ) false vs)
    2

let test_tseitin_mux () =
  check_gate_encoding "mux"
    (fun s ~out ins ->
      match ins with [ a; b; sel ] -> Tseitin.mux s ~out ~sel a b | _ -> assert false)
    (function [ a; b; sel ] -> (if sel then b else a) | _ -> assert false)
    3

let prop_tseitin_truthtable =
  let arb_tt =
    QCheck.make
      ~print:Tt.to_string
      QCheck.Gen.(
        int_range 0 4 >>= fun arity ->
        map (fun bits -> Tt.of_bits ~arity (Int64.of_int bits)) (int_bound 65535))
  in
  QCheck.Test.make ~name:"of_truthtable encodes exactly the function" ~count:100 arb_tt
    (fun tt ->
      let n = Tt.arity tt in
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        let s = Solver.create () in
        let ins = Array.init n (fun i -> i + 1) in
        let out = n + 1 in
        Solver.ensure_vars s (n + 1);
        Tseitin.of_truthtable s ~out ins tt;
        Array.iteri
          (fun i v -> Solver.add_clause s [ (if (m lsr i) land 1 = 1 then v else -v) ])
          ins;
        (match Solver.solve s with
        | Solver.Sat -> if Solver.value s out <> Tt.eval_index tt m then ok := false
        | Solver.Unsat | Solver.Unknown -> ok := false)
      done;
      !ok)

let test_solver_deterministic () =
  let build () =
    let s = Solver.create () in
    for v = 1 to 30 do
      Solver.add_clause s [ v; -(((v + 3) mod 30) + 1) ]
    done;
    Solver.add_clause s [ 1; 2; 3 ];
    ignore (Solver.solve s);
    Array.init 30 (fun i -> Solver.value s (i + 1))
  in
  Alcotest.(check (array bool)) "same model both runs" (build ()) (build ())

let test_accessors () =
  let s = Solver.create () in
  Alcotest.(check int) "no vars" 0 (Solver.num_vars s);
  ignore (Solver.new_var s);
  Alcotest.(check int) "one var" 1 (Solver.num_vars s);
  Solver.add_clause s [ 1; 2 ];
  Alcotest.(check int) "clauses" 1 (Solver.num_clauses s);
  Alcotest.(check int) "vars grown by clause" 2 (Solver.num_vars s)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_solver_vs_brute;
    QCheck_alcotest.to_alcotest prop_assumptions;
    Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "incremental" `Quick test_incremental_after_solve;
    Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
    Alcotest.test_case "conflict budget" `Quick test_max_conflicts_budget;
    Alcotest.test_case "tseitin and" `Quick test_tseitin_and;
    Alcotest.test_case "tseitin or" `Quick test_tseitin_or;
    Alcotest.test_case "tseitin xor" `Quick test_tseitin_xor;
    Alcotest.test_case "tseitin mux" `Quick test_tseitin_mux;
    QCheck_alcotest.to_alcotest prop_tseitin_truthtable;
    Alcotest.test_case "solver deterministic" `Quick test_solver_deterministic;
    Alcotest.test_case "accessors" `Quick test_accessors;
  ]

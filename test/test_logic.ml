(* Tests for dfm_logic: truth tables and BDDs. *)

module Tt = Dfm_logic.Truthtable

let arb_tt =
  QCheck.make
    ~print:(fun t -> Tt.to_string t)
    QCheck.Gen.(
      int_range 0 4 >>= fun arity ->
      map (fun bits -> Tt.of_bits ~arity (Int64.of_int bits)) (int_bound 65535))

let test_create_eval () =
  let andf = Tt.create 2 (fun a -> a.(0) && a.(1)) in
  Alcotest.(check bool) "and 11" true (Tt.eval andf [| true; true |]);
  Alcotest.(check bool) "and 10" false (Tt.eval andf [| true; false |]);
  Alcotest.(check int64) "and bits" 8L (Tt.bits andf)

let test_vars_consts () =
  let x = Tt.var 3 1 in
  Alcotest.(check bool) "var picks input" true (Tt.eval x [| false; true; false |]);
  Alcotest.(check bool) "const0" false (Tt.eval_index (Tt.const0 2) 3);
  Alcotest.(check bool) "const1" true (Tt.eval_index (Tt.const1 2) 3)

let prop_ops_semantics =
  QCheck.Test.make ~name:"boolean ops match pointwise semantics" ~count:200
    QCheck.(pair arb_tt arb_tt)
    (fun (a, b) ->
      QCheck.assume (Tt.arity a = Tt.arity b);
      let n = Tt.arity a in
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        let va = Tt.eval_index a m and vb = Tt.eval_index b m in
        if Tt.eval_index (Tt.land_ a b) m <> (va && vb) then ok := false;
        if Tt.eval_index (Tt.lor_ a b) m <> (va || vb) then ok := false;
        if Tt.eval_index (Tt.lxor_ a b) m <> (va <> vb) then ok := false;
        if Tt.eval_index (Tt.lnot a) m <> not va then ok := false
      done;
      !ok)

let prop_cofactor_shannon =
  QCheck.Test.make ~name:"Shannon expansion f = x*f1 + x'*f0" ~count:200 arb_tt
    (fun f ->
      let n = Tt.arity f in
      QCheck.assume (n >= 1);
      let ok = ref true in
      for k = 0 to n - 1 do
        let f0 = Tt.cofactor f k false and f1 = Tt.cofactor f k true in
        let x = Tt.var n k in
        let recombined = Tt.lor_ (Tt.land_ x f1) (Tt.land_ (Tt.lnot x) f0) in
        if not (Tt.equal recombined f) then ok := false
      done;
      !ok)

let prop_permute_involution =
  QCheck.Test.make ~name:"permuting by p then inverse(p) is identity" ~count:200 arb_tt
    (fun f ->
      let n = Tt.arity f in
      QCheck.assume (n >= 2);
      (* rotation permutation and its inverse *)
      let p = Array.init n (fun i -> (i + 1) mod n) in
      let pinv = Array.init n (fun i -> (i + n - 1) mod n) in
      Tt.equal f (Tt.permute (Tt.permute f p) pinv))

let test_support () =
  let f = Tt.create 3 (fun a -> a.(0) <> a.(2)) in
  Alcotest.(check bool) "dep 0" true (Tt.depends_on f 0);
  Alcotest.(check bool) "no dep 1" false (Tt.depends_on f 1);
  Alcotest.(check int) "support" 2 (Tt.support_size f)

let test_all_permutations () =
  let xorf = Tt.create 2 (fun a -> a.(0) <> a.(1)) in
  Alcotest.(check int) "xor symmetric" 1 (List.length (Tt.all_permutations xorf));
  let implies = Tt.create 2 (fun a -> (not a.(0)) || a.(1)) in
  Alcotest.(check int) "implication asymmetric" 2 (List.length (Tt.all_permutations implies))

let test_minterms () =
  let f = Tt.create 2 (fun a -> a.(0) && a.(1)) in
  Alcotest.(check (list int)) "and minterm" [ 3 ] (Tt.minterms f);
  Alcotest.(check int) "count" 1 (Tt.count_ones f)

(* BDD: equivalence with the truth table it was built from, and canonicity. *)
let prop_bdd_matches_tt =
  QCheck.Test.make ~name:"BDD evaluates like its truth table" ~count:200 arb_tt
    (fun f ->
      let man = Bdd.man () in
      let b = Bdd.of_truthtable man f in
      let n = Tt.arity f in
      (* Evaluate the BDD by building the minterm and intersecting. *)
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        let cube = ref (Bdd.one man) in
        for k = 0 to n - 1 do
          let v = Bdd.var man k in
          let lit = if (m lsr k) land 1 = 1 then v else Bdd.bnot man v in
          cube := Bdd.band man !cube lit
        done;
        let inter = Bdd.band man b !cube in
        let expect = Tt.eval_index f m in
        if Bdd.is_zero inter = expect then ok := false
      done;
      !ok)

let prop_bdd_canonical =
  QCheck.Test.make ~name:"equal functions build identical BDD nodes" ~count:200
    QCheck.(pair arb_tt arb_tt)
    (fun (f, g) ->
      QCheck.assume (Tt.arity f = Tt.arity g);
      let man = Bdd.man () in
      let bf = Bdd.of_truthtable man f and bg = Bdd.of_truthtable man g in
      Bdd.equal bf bg = Tt.equal f g)

let test_bdd_ops () =
  let man = Bdd.man () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  Alcotest.(check bool) "x&~x = 0" true (Bdd.is_zero (Bdd.band man x (Bdd.bnot man x)));
  Alcotest.(check bool) "x|~x = 1" true (Bdd.is_one (Bdd.bor man x (Bdd.bnot man x)));
  Alcotest.(check bool) "xor self" true (Bdd.is_zero (Bdd.bxor man y y));
  let ite = Bdd.bite man x y (Bdd.bnot man y) in
  (* ite(x,y,~y) = xnor(x,y)... check a satisfying assignment exists *)
  Alcotest.(check bool) "ite sat" true (Bdd.sat_one man ite <> None);
  Alcotest.(check bool) "size positive" true (Bdd.size man ite > 0)

let test_bdd_sat_one () =
  let man = Bdd.man () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  let f = Bdd.band man x (Bdd.bnot man y) in
  match Bdd.sat_one man f with
  | Some assignment ->
      Alcotest.(check bool) "x true" true (List.assoc 0 assignment);
      Alcotest.(check bool) "y false" false (List.assoc 1 assignment)
  | None -> Alcotest.fail "expected satisfiable"

let test_of_bits_masks_high_bits () =
  let t = Tt.of_bits ~arity:2 0xFFFFL in
  Alcotest.(check int64) "masked to 4 bits" 0xFL (Tt.bits t);
  Alcotest.check_raises "arity 7 rejected" (Invalid_argument "Truthtable: arity must be in [0,6]")
    (fun () -> ignore (Tt.of_bits ~arity:7 0L))

let test_arity_mismatch_rejected () =
  let a = Tt.var 2 0 and b = Tt.var 3 0 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Truthtable: arity mismatch") (fun () ->
      ignore (Tt.land_ a b))

let suite =
  [
    Alcotest.test_case "create/eval" `Quick test_create_eval;
    Alcotest.test_case "vars and constants" `Quick test_vars_consts;
    QCheck_alcotest.to_alcotest prop_ops_semantics;
    QCheck_alcotest.to_alcotest prop_cofactor_shannon;
    QCheck_alcotest.to_alcotest prop_permute_involution;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "all_permutations" `Quick test_all_permutations;
    Alcotest.test_case "minterms" `Quick test_minterms;
    QCheck_alcotest.to_alcotest prop_bdd_matches_tt;
    QCheck_alcotest.to_alcotest prop_bdd_canonical;
    Alcotest.test_case "bdd ops" `Quick test_bdd_ops;
    Alcotest.test_case "bdd sat_one" `Quick test_bdd_sat_one;
    Alcotest.test_case "of_bits masking" `Quick test_of_bits_masks_high_bits;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch_rejected;
  ]

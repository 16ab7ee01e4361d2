(* Tests for dfm_util: RNG determinism, union-find. *)

module Rng = Dfm_util.Rng
module UF = Dfm_util.Union_find

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_named_streams_differ () =
  let a = Rng.of_name "alpha" and b = Rng.of_name "beta" in
  Alcotest.(check bool) "decorrelated" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let v1 = Rng.bits64 child in
  (* Drawing more from the parent must not affect the child's past. *)
  let parent2 = Rng.create 5 in
  let child2 = Rng.split parent2 in
  Alcotest.(check int64) "split deterministic" v1 (Rng.bits64 child2)

let test_rng_sample () =
  let r = Rng.create 9 in
  let s = Rng.sample r 3 [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "size" 3 (List.length s);
  Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare s));
  Alcotest.(check (list int)) "empty source" [] (Rng.sample r 3 [])

let test_uf_basic () =
  let uf = UF.create 10 in
  Alcotest.(check int) "initial classes" 10 (UF.count_classes uf);
  UF.union uf 0 1;
  UF.union uf 1 2;
  Alcotest.(check bool) "0~2" true (UF.same uf 0 2);
  Alcotest.(check bool) "0!~3" false (UF.same uf 0 3);
  Alcotest.(check int) "class size" 3 (UF.class_size uf 0);
  Alcotest.(check int) "classes after" 8 (UF.count_classes uf)

let test_uf_classes_listing () =
  let uf = UF.create 5 in
  UF.union uf 3 4;
  let classes = UF.classes uf in
  Alcotest.(check int) "4 classes" 4 (List.length classes);
  let with34 = List.find (fun (_, m) -> List.mem 3 m) classes in
  Alcotest.(check (list int)) "members sorted" [ 3; 4 ] (snd with34)

(* Property: union-find partitions agree with a naive equivalence closure. *)
let prop_uf_vs_naive =
  QCheck.Test.make ~name:"union_find agrees with naive closure" ~count:100
    QCheck.(pair (int_range 1 20) (small_list (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, pairs) ->
      let pairs = List.filter (fun (a, b) -> a < n && b < n) pairs in
      let uf = UF.create n in
      List.iter (fun (a, b) -> UF.union uf a b) pairs;
      (* naive: adjacency closure *)
      let adj = Array.make n [] in
      List.iter
        (fun (a, b) ->
          adj.(a) <- b :: adj.(a);
          adj.(b) <- a :: adj.(b))
        pairs;
      let comp = Array.make n (-1) in
      let rec dfs c v =
        if comp.(v) = -1 then begin
          comp.(v) <- c;
          List.iter (dfs c) adj.(v)
        end
      in
      for v = 0 to n - 1 do
        if comp.(v) = -1 then dfs v v
      done;
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if UF.same uf a b <> (comp.(a) = comp.(b)) then ok := false
        done
      done;
      !ok)

let test_rng_float_range () =
  let r = Rng.create 21 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_chance_extremes () =
  let r = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.chance r 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.chance r 1.0)
  done

let test_shuffle_is_permutation () =
  let r = Rng.create 17 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng named streams differ" `Quick test_rng_named_streams_differ;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng sample" `Quick test_rng_sample;
    Alcotest.test_case "union-find basic" `Quick test_uf_basic;
    Alcotest.test_case "union-find classes" `Quick test_uf_classes_listing;
    QCheck_alcotest.to_alcotest prop_uf_vs_naive;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng chance extremes" `Quick test_rng_chance_extremes;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
  ]

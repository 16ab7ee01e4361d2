(* Tests for dfm_netlist: builder, validation, adjacency (Fig. 1 of the
   paper), IO round-trips, extract/replace, equivalence checking. *)

module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module Library = Dfm_netlist.Library
module Io = Dfm_netlist.Netlist_io

let lib = Dfm_cellmodel.Osu018.library

let small_comb () =
  let b = B.create ~name:"small" lib in
  let a = B.add_pi b "a" in
  let c = B.add_pi b "c" in
  let n1 = B.add_gate b ~cell:"NAND2X1" [| a; c |] in
  let n2 = B.add_gate b ~cell:"INVX1" [| n1 |] in
  B.mark_po b "y" n2;
  B.finish b

let sequential_loop () =
  (* A 2-bit counter-ish loop through flip-flops. *)
  let b = B.create ~name:"seqloop" lib in
  let en = B.add_pi b "en" in
  let q0 = B.declare_net b "q0" in
  let q1 = B.declare_net b "q1" in
  let d0 = B.add_gate b ~cell:"XOR2X1" [| q0; en |] in
  let d1 = B.add_gate b ~cell:"XOR2X1" [| q1; q0 |] in
  B.add_gate_driving b ~cell:"DFFPOSX1" [| d0 |] q0;
  B.add_gate_driving b ~cell:"DFFPOSX1" [| d1 |] q1;
  B.mark_po b "o0" q0;
  B.mark_po b "o1" q1;
  B.finish b

let test_builder_basics () =
  let t = small_comb () in
  Alcotest.(check int) "gates" 2 (N.num_gates t);
  Alcotest.(check int) "nets" 4 (N.num_nets t);
  Alcotest.(check int) "pis" 2 (Array.length t.N.pis);
  N.validate t

let test_builder_rejects_bad_arity () =
  let b = B.create ~name:"bad" lib in
  let a = B.add_pi b "a" in
  Alcotest.check_raises "pin count"
    (Invalid_argument "Builder.add_gate NAND2X1: expected 2 pins, got 1")
    (fun () -> ignore (B.add_gate b ~cell:"NAND2X1" [| a |]))

let test_builder_rejects_undriven () =
  let b = B.create ~name:"undriven" lib in
  let a = B.add_pi b "a" in
  let hole = B.declare_net b "hole" in
  let y = B.add_gate b ~cell:"NAND2X1" [| a; hole |] in
  B.mark_po b "y" y;
  (try
     ignore (B.finish b);
     Alcotest.fail "expected failure"
   with Failure msg ->
     Alcotest.(check bool) "mentions driver" true
       (String.length msg > 0 && String.lowercase_ascii msg <> ""))

let test_sequential_loop () =
  let t = sequential_loop () in
  Alcotest.(check int) "seq gates" 2 (List.length (N.seq_gates t));
  (* Controllable points: PI + 2 flop outputs. *)
  Alcotest.(check int) "inputs" 3 (List.length (N.input_nets t));
  Alcotest.(check int) "observes" 4 (List.length (N.observe_nets t));
  (* topo order covers only the combinational gates *)
  Alcotest.(check int) "topo comb only" 2 (Array.length (N.topo_order t))

let test_const_nets_shared () =
  let b = B.create ~name:"consts" lib in
  let c1 = B.const_net b true in
  let c1' = B.const_net b true in
  let c0 = B.const_net b false in
  Alcotest.(check int) "shared" c1 c1';
  Alcotest.(check bool) "distinct polarity" true (c0 <> c1)

(* Fig. 1 of the paper: gates g1 and g2 are adjacent only when one directly
   drives the other. *)
let test_fig1_adjacency () =
  (* (a) g1 and g2 share a fanin net: NOT adjacent. *)
  let b = B.create ~name:"fig1a" lib in
  let x = B.add_pi b "x" in
  let y = B.add_pi b "y" in
  let g1 = B.add_gate b ~name:"g1" ~cell:"INVX1" [| x |] in
  let g2 = B.add_gate b ~name:"g2" ~cell:"NAND2X1" [| x; y |] in
  B.mark_po b "o1" g1;
  B.mark_po b "o2" g2;
  let t = B.finish b in
  Alcotest.(check (list int)) "(a) shared fanin not adjacent" [] (N.adjacent_gates t 0 |> List.filter (fun g -> g = 1));
  (* (b) g1 and g2 both drive a third gate: NOT adjacent to each other. *)
  let b = B.create ~name:"fig1b" lib in
  let x = B.add_pi b "x" in
  let y = B.add_pi b "y" in
  let g1 = B.add_gate b ~name:"g1" ~cell:"INVX1" [| x |] in
  let g2 = B.add_gate b ~name:"g2" ~cell:"INVX1" [| y |] in
  let g3 = B.add_gate b ~name:"g3" ~cell:"NAND2X1" [| g1; g2 |] in
  B.mark_po b "o" g3;
  let t = B.finish b in
  Alcotest.(check bool) "(b) siblings not adjacent" false (List.mem 1 (N.adjacent_gates t 0));
  Alcotest.(check bool) "(b) g1 adj g3" true (List.mem 2 (N.adjacent_gates t 0));
  (* (c) g1 drives g2: adjacent, symmetrically. *)
  let b = B.create ~name:"fig1c" lib in
  let x = B.add_pi b "x" in
  let g1 = B.add_gate b ~name:"g1" ~cell:"INVX1" [| x |] in
  let g2 = B.add_gate b ~name:"g2" ~cell:"INVX1" [| g1 |] in
  B.mark_po b "o" g2;
  let t = B.finish b in
  Alcotest.(check bool) "(c) driver adjacent" true (List.mem 1 (N.adjacent_gates t 0));
  Alcotest.(check bool) "(c) symmetric" true (List.mem 0 (N.adjacent_gates t 1))

let test_io_roundtrip () =
  let t = sequential_loop () in
  let text = Io.to_string t in
  let t' = Io.read ~library:lib text in
  Alcotest.(check string) "name" t.N.name t'.N.name;
  Alcotest.(check int) "gates" (N.num_gates t) (N.num_gates t');
  (match Equiv.check t t' with
  | Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "round-trip not equivalent");
  (* And for a combinational one with a const net. *)
  let b = B.create ~name:"constio" lib in
  let a = B.add_pi b "a" in
  let z = B.const_net b false in
  let y = B.add_gate b ~cell:"MUX2X1" [| a; z; a |] in
  B.mark_po b "y" y;
  let t = B.finish b in
  let t' = Io.read ~library:lib (Io.to_string t) in
  match Equiv.check t t' with
  | Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "const round-trip not equivalent"

(* Degenerate shapes must survive the text format unchanged: no gates at
   all, a single gate, gates fed only by constants, and one net feeding
   several pins of the same sink gate. *)
let test_io_degenerate_roundtrips () =
  let roundtrip label t =
    let t' = Io.read ~library:lib (Io.to_string t) in
    Alcotest.(check int) (label ^ " gates") (N.num_gates t) (N.num_gates t');
    Alcotest.(check int) (label ^ " nets") (N.num_nets t) (N.num_nets t');
    Alcotest.(check int) (label ^ " pos") (Array.length t.N.pos) (Array.length t'.N.pos);
    if N.num_gates t > 0 then
      match Equiv.check t t' with
      | Equiv.Equivalent -> ()
      | _ -> Alcotest.fail (label ^ " not equivalent")
  in
  (* Empty: a PI wired straight to a PO, no gates. *)
  let b = B.create ~name:"empty" lib in
  let a = B.add_pi b "a" in
  B.mark_po b "y" a;
  roundtrip "empty" (B.finish b);
  (* Single gate. *)
  let b = B.create ~name:"single" lib in
  let a = B.add_pi b "a" in
  B.mark_po b "y" (B.add_gate b ~cell:"INVX1" [| a |]);
  roundtrip "single" (B.finish b);
  (* Const-only drivers: every gate input is a constant net. *)
  let b = B.create ~name:"constonly" lib in
  let k0 = B.const_net b false in
  let k1 = B.const_net b true in
  B.mark_po b "y" (B.add_gate b ~cell:"NAND2X1" [| k0; k1 |]);
  roundtrip "const-only" (B.finish b);
  (* One net into multiple pins of the same sink gate. *)
  let b = B.create ~name:"dup" lib in
  let a = B.add_pi b "a" in
  let x = B.add_gate b ~cell:"INVX1" [| a |] in
  B.mark_po b "y" (B.add_gate b ~cell:"MUX2X1" [| x; x; x |]);
  let t = B.finish b in
  roundtrip "dup-sink" t;
  (* The duplicate sink entries themselves must survive. *)
  let t' = Io.read ~library:lib (Io.to_string t) in
  let inv =
    List.find (fun (g : N.gate) -> g.N.cell.Cell.name = "INVX1") (Array.to_list t'.N.gates)
  in
  Alcotest.(check int) "dup-sink pin entries" 3
    (List.length (N.net t' inv.N.fanout).N.sinks);
  (* None of these shapes is a lint error. *)
  List.iter
    (fun nl -> Alcotest.(check (list string)) "no lint errors" []
        (List.map (fun f -> f.Dfm_lint.Lint.rule) (Dfm_lint.Lint.errors (Dfm_lint.Lint.check nl))))
    [ t; t' ]

let test_io_errors () =
  (try
     ignore (Io.read ~library:lib "gate NAND2X1 g0 y a b\n");
     Alcotest.fail "expected header error"
   with Failure _ -> ());
  try
    ignore (Io.read ~library:lib "circuit x\ngate BOGUS g0 y a b\nend\n");
    Alcotest.fail "expected unknown cell"
  with Failure msg ->
    Alcotest.(check bool) "line number" true
      (String.length msg > 0)

let random_netlist seed npis ngates =
  let rng = Dfm_util.Rng.create seed in
  let b = B.create ~name:"rand" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  let cells = [| "INVX1"; "NAND2X1"; "NOR2X1"; "XOR2X1"; "AOI21X1"; "MUX2X1" |] in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let cname = Dfm_util.Rng.pick rng cells in
    let c = Library.find lib cname in
    let fanins = Array.init (Cell.arity c) (fun _ -> Dfm_util.Rng.pick rng arr) in
    nets := B.add_gate b ~cell:cname fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 3 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

(* Replacing a region with its own extraction is the identity up to
   equivalence. *)
let prop_extract_replace_identity =
  QCheck.Test.make ~name:"replace(extract(region)) preserves function" ~count:40
    QCheck.(pair (int_range 1 1000) (int_range 3 12))
    (fun (seed, ngates) ->
      let t = random_netlist seed 4 ngates in
      (* pick a subset of combinational gates *)
      let rng = Dfm_util.Rng.create (seed + 1) in
      let region =
        N.comb_gates t
        |> List.filter_map (fun (g : N.gate) ->
               if Dfm_util.Rng.chance rng 0.5 then Some g.N.gate_id else None)
      in
      QCheck.assume (region <> []);
      let sub, boundary = N.extract t ~gates:region in
      let t' = N.replace t ~gates:region ~sub boundary in
      N.validate t';
      Equiv.check t t' = Equiv.Equivalent)

let test_extract_rejects_seq () =
  let t = sequential_loop () in
  let seq_gate = (List.hd (N.seq_gates t)).N.gate_id in
  try
    ignore (N.extract t ~gates:[ seq_gate ]);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_cell_counts_and_area () =
  let t = small_comb () in
  let counts = N.cell_counts t in
  Alcotest.(check (option int)) "nand2" (Some 1) (List.assoc_opt "NAND2X1" counts);
  Alcotest.(check (option int)) "inv" (Some 1) (List.assoc_opt "INVX1" counts);
  let area = N.total_area t in
  let expect =
    (Library.find lib "NAND2X1").Cell.area +. (Library.find lib "INVX1").Cell.area
  in
  Alcotest.(check (float 1e-9)) "area" expect area

let test_library_restrict_and_completeness () =
  Alcotest.(check int) "21 cells" 21 (Library.size lib);
  Alcotest.(check bool) "complete" true (Library.functionally_complete lib);
  let r = Library.restrict lib ~excluded:[ "NAND2X1"; "XOR2X1" ] in
  Alcotest.(check int) "two fewer" 19 (Library.size r);
  Alcotest.(check bool) "still complete" true (Library.functionally_complete r);
  (* XOR alone is affine and must NOT count as complete. *)
  let only_xor = Library.filter lib (fun c -> c.Cell.name = "XOR2X1") in
  Alcotest.(check bool) "xor alone incomplete" false (Library.functionally_complete only_xor);
  (* NAND2 alone is complete. *)
  let only_nand = Library.filter lib (fun c -> c.Cell.name = "NAND2X1") in
  Alcotest.(check bool) "nand alone complete" true (Library.functionally_complete only_nand)

let test_gate_levels () =
  let t = small_comb () in
  let levels = N.gate_levels t in
  Alcotest.(check int) "nand level" 0 levels.(0);
  Alcotest.(check int) "inv level" 1 levels.(1)

(* Verilog round trips and error reporting. *)
let test_verilog_roundtrip () =
  let t = sequential_loop () in
  let text = Dfm_netlist.Verilog.to_string t in
  let t' = Dfm_netlist.Verilog.read ~library:lib text in
  Alcotest.(check int) "gates" (N.num_gates t) (N.num_gates t');
  (match Equiv.check t t' with
  | Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "verilog round-trip not equivalent");
  (* consts and output-from-PI feedthrough *)
  let b = B.create ~name:"vconst" lib in
  let a = B.add_pi b "a" in
  let z = B.const_net b true in
  let y = B.add_gate b ~cell:"MUX2X1" [| a; z; a |] in
  B.mark_po b "y" y;
  B.mark_po b "echo" a;
  let t = B.finish b in
  let t' = Dfm_netlist.Verilog.read ~library:lib (Dfm_netlist.Verilog.to_string t) in
  match Equiv.check t t' with
  | Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "const/feedthrough verilog round-trip not equivalent"

let test_verilog_roundtrip_block () =
  let t = Dfm_circuits.Circuits.build ~scale:0.25 "sparc_spu" in
  let t' = Dfm_netlist.Verilog.read ~library:lib (Dfm_netlist.Verilog.to_string t) in
  N.validate t';
  Alcotest.(check int) "same gate count" (N.num_gates t) (N.num_gates t');
  match Dfm_atpg.Equiv_sat.check t t' with
  | Dfm_atpg.Equiv_sat.Equivalent -> ()
  | _ -> Alcotest.fail "block verilog round-trip not equivalent"

let test_verilog_errors () =
  let check_fails text expect_line =
    try
      ignore (Dfm_netlist.Verilog.read ~library:lib text);
      Alcotest.fail "expected Parse_error"
    with Dfm_netlist.Verilog.Parse_error (line, _) ->
      if expect_line > 0 then Alcotest.(check int) "line" expect_line line
  in
  check_fails "wire x;
" 1;  (* missing module *)
  check_fails "module m ();
  BOGUS g0 (.A(x), .Y(y));
endmodule
" 2;
  check_fails "module m (a);
  input a;
  NAND2X1 g0 (.A(a), .Y(y));
endmodule
" 3
  (* missing pin B *)

let test_verilog_comments_and_escapes () =
  let text =
    "// header comment
     module m (a, y); /* block
     comment */
     \  input a;
     \  output y;
     \  INVX1 \\weird.name  (.A(a), .Y(y));
     endmodule
"
  in
  let t = Dfm_netlist.Verilog.read ~library:lib text in
  Alcotest.(check int) "one gate" 1 (N.num_gates t)

let suite =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basics;
    Alcotest.test_case "builder arity check" `Quick test_builder_rejects_bad_arity;
    Alcotest.test_case "builder undriven net" `Quick test_builder_rejects_undriven;
    Alcotest.test_case "sequential loop" `Quick test_sequential_loop;
    Alcotest.test_case "const nets shared" `Quick test_const_nets_shared;
    Alcotest.test_case "fig1 adjacency" `Quick test_fig1_adjacency;
    Alcotest.test_case "io round trip" `Quick test_io_roundtrip;
    Alcotest.test_case "io degenerate round trips" `Quick test_io_degenerate_roundtrips;
    Alcotest.test_case "io errors" `Quick test_io_errors;
    QCheck_alcotest.to_alcotest prop_extract_replace_identity;
    Alcotest.test_case "extract rejects seq" `Quick test_extract_rejects_seq;
    Alcotest.test_case "cell counts and area" `Quick test_cell_counts_and_area;
    Alcotest.test_case "library restrict/completeness" `Quick test_library_restrict_and_completeness;
    Alcotest.test_case "gate levels" `Quick test_gate_levels;
    Alcotest.test_case "verilog roundtrip" `Quick test_verilog_roundtrip;
    Alcotest.test_case "verilog roundtrip block" `Quick test_verilog_roundtrip_block;
    Alcotest.test_case "verilog errors" `Quick test_verilog_errors;
    Alcotest.test_case "verilog comments/escapes" `Quick test_verilog_comments_and_escapes;
  ]

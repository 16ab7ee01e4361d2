(* Tests for dfm_sim: bit-parallel logic simulation and event-driven fault
   simulation, cross-checked against naive reference evaluations and the SAT
   engine. *)

module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module Ls = Dfm_sim.Logic_sim
module Fs = Dfm_sim.Fault_sim
module F = Dfm_faults.Fault
module Rng = Dfm_util.Rng

let lib = Dfm_cellmodel.Osu018.library

let random_netlist seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"rand" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  let cells =
    [| "INVX1"; "NAND2X1"; "NOR3X1"; "XOR2X1"; "AOI22X1"; "MUX2X1"; "OR2X2"; "NAND4X1" |]
  in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let cname = Rng.pick rng cells in
    let c = Dfm_netlist.Library.find lib cname in
    let fanins = Array.init (Cell.arity c) (fun _ -> Rng.pick rng arr) in
    nets := B.add_gate b ~cell:cname fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 4 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

(* Naive single-pattern reference evaluation. *)
let reference_eval nl (inputs : (string * bool) list) =
  let values = Array.make (N.num_nets nl) false in
  List.iter
    (fun (label, nid) -> values.(nid) <- List.assoc label inputs)
    (N.input_nets nl);
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const v -> values.(nn.N.net_id) <- v
      | N.Pi _ | N.Gate_out _ -> ())
    nl.N.nets;
  Array.iter
    (fun gid ->
      let g = N.gate nl gid in
      let ins = Array.map (fun n -> values.(n)) g.N.fanins in
      values.(g.N.fanout) <- Dfm_logic.Truthtable.eval g.N.cell.Cell.func ins)
    (N.topo_order nl);
  values

let prop_logic_sim_matches_reference =
  QCheck.Test.make ~name:"bit-parallel sim matches naive evaluation" ~count:30
    QCheck.(pair (int_range 1 10000) (int_range 2 15))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let ls = Ls.prepare nl in
      let rng = Rng.create (seed * 3) in
      let words = Ls.random_words ls rng in
      let values = Ls.run ls words in
      (* check 8 of the 64 bit positions against the reference *)
      let ok = ref true in
      for b = 0 to 7 do
        let pattern = Ls.pattern_of_words words b in
        let inputs = List.mapi (fun i (label, _) -> (label, pattern.(i))) (Ls.inputs ls) in
        let expect = reference_eval nl inputs in
        Array.iteri
          (fun nid e ->
            let w = Ls.value values nid in
            let bit = Int64.logand (Int64.shift_right_logical w b) 1L = 1L in
            if bit <> e then ok := false)
          expect
      done;
      !ok)

(* Fault simulation vs direct faulty re-simulation for net stuck-at faults. *)
let faulty_reference_eval nl inputs (f : F.t) =
  let values = Array.make (N.num_nets nl) false in
  List.iter (fun (label, nid) -> values.(nid) <- List.assoc label inputs) (N.input_nets nl);
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const v -> values.(nn.N.net_id) <- v
      | N.Pi _ | N.Gate_out _ -> ())
    nl.N.nets;
  let force_net n =
    match f.F.kind with
    | F.Stuck (F.On_net fn, pol) when fn = n -> Some (pol = F.Sa1)
    | _ -> None
  in
  List.iter
    (fun (_, nid) ->
      match force_net nid with Some v -> values.(nid) <- v | None -> ())
    (N.input_nets nl);
  Array.iter
    (fun gid ->
      let g = N.gate nl gid in
      let ins = Array.map (fun n -> values.(n)) g.N.fanins in
      let v = Dfm_logic.Truthtable.eval g.N.cell.Cell.func ins in
      values.(g.N.fanout) <-
        (match force_net g.N.fanout with Some fv -> fv | None -> v))
    (N.topo_order nl);
  values

let prop_fault_sim_stuck_matches_reference =
  QCheck.Test.make ~name:"fault sim detect word matches faulty resim" ~count:25
    QCheck.(pair (int_range 1 10000) (int_range 3 12))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let ls = Ls.prepare nl in
      let fs = Fs.prepare nl in
      let rng = Rng.create (seed * 7) in
      let words = Ls.random_words ls rng in
      let good = Ls.run ls words in
      let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 } in
      let ok = ref true in
      Array.iter
        (fun (nn : N.net) ->
          List.iter
            (fun pol ->
              let f = { F.fault_id = 0; kind = F.Stuck (F.On_net nn.N.net_id, pol); origin } in
              let dw = Fs.detect_word fs ~good f in
              (* check bit 0 and bit 5 against naive resim *)
              List.iter
                (fun b ->
                  let pattern = Ls.pattern_of_words words b in
                  let inputs =
                    List.mapi (fun i (label, _) -> (label, pattern.(i))) (Ls.inputs ls)
                  in
                  let gv = reference_eval nl inputs in
                  let fv = faulty_reference_eval nl inputs f in
                  let detect_ref =
                    List.exists (fun (_, o) -> gv.(o) <> fv.(o)) (N.observe_nets nl)
                  in
                  let detect_sim = Int64.logand (Int64.shift_right_logical dw b) 1L = 1L in
                  if detect_ref <> detect_sim then ok := false)
                [ 0; 5 ])
            [ F.Sa0; F.Sa1 ])
        nl.N.nets;
      !ok)

let test_activation_word () =
  (* Over two inputs, the activation on minterm 3 is the AND of the input
     words; on minterms 1 and 2 their XOR. *)
  let words = [| 0b1100L; 0b1010L |] in
  let act ms = Dfm_logic.Wordprog.(eval (of_minterms ~arity:2 ms)) words in
  Alcotest.(check int64) "minterm 3" 0b1000L (act [ 3 ]);
  Alcotest.(check int64) "minterms 1,2" 0b0110L (act [ 1; 2 ])

let test_transition_init_word () =
  let b = B.create ~name:"tf" lib in
  let x = B.add_pi b "x" in
  let g = B.add_gate b ~cell:"INVX1" [| x |] in
  B.mark_po b "o" g;
  let nl = B.finish b in
  let fs = Fs.prepare nl in
  let ls = Fs.sim fs in
  let words = [| 0b0101L |] in
  let good = Ls.run ls words in
  let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 } in
  let str = { F.fault_id = 0; kind = F.Transition (F.On_net x, F.Slow_to_rise); origin } in
  (* STR needs initial 0 at the site. *)
  Alcotest.(check int64) "init word str" (Int64.lognot 0b0101L) (Fs.init_word fs ~good str);
  let stf = { F.fault_id = 1; kind = F.Transition (F.On_net x, F.Slow_to_fall); origin } in
  Alcotest.(check int64) "init word stf" 0b0101L (Fs.init_word fs ~good stf)

let test_bridge_fault_sim () =
  (* Wired-AND between two PI-driven nets feeding separate outputs. *)
  let b = B.create ~name:"br" lib in
  let x = B.add_pi b "x" in
  let y = B.add_pi b "y" in
  let bx = B.add_gate b ~cell:"BUFX2" [| x |] in
  let by = B.add_gate b ~cell:"BUFX2" [| y |] in
  B.mark_po b "ox" bx;
  B.mark_po b "oy" by;
  let nl = B.finish b in
  let fs = Fs.prepare nl in
  let ls = Fs.sim fs in
  let words = [| 0b1100L; 0b1010L |] in
  let good = Ls.run ls words in
  let origin = { F.category = Dfm_cellmodel.Defect.Metal; guideline_index = 0 } in
  let f = { F.fault_id = 0; kind = F.Bridge (x, y, F.Wired_and); origin } in
  (* Wired-AND deviates exactly when x <> y: bits where x=1,y=0 or x=0,y=1. *)
  Alcotest.(check int64) "bridge detect" 0b0110L (Fs.detect_word fs ~good f)

let test_dff_internal_fault_detection () =
  (* The flop's internal fault is observed directly through the scan path. *)
  let b = B.create ~name:"dffsim" lib in
  let x = B.add_pi b "x" in
  let q = B.add_gate b ~cell:"DFFPOSX1" [| x |] in
  B.mark_po b "o" q;
  let nl = B.finish b in
  let fs = Fs.prepare nl in
  let ls = Fs.sim fs in
  let words = Ls.random_words ls (Rng.create 3) in
  let good = Ls.run ls words in
  let u = Dfm_cellmodel.Udfm.for_cell Dfm_cellmodel.Osu018.dff_name in
  let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 } in
  List.iteri
    (fun idx (e : Dfm_cellmodel.Udfm.entry) ->
      let f = { F.fault_id = idx; kind = F.Internal (0, idx); origin } in
      let dw = Fs.detect_word fs ~good f in
      (* activation over D=x: [0] -> patterns with x=0; [1] -> x=1; both -> all *)
      let d_word = Ls.value good x in
      let expect =
        List.fold_left
          (fun acc m -> Int64.logor acc (if m = 1 then d_word else Int64.lognot d_word))
          0L e.Dfm_cellmodel.Udfm.activation
      in
      Alcotest.(check int64) (Printf.sprintf "dff entry %d" idx) expect dw)
    u.Dfm_cellmodel.Udfm.entries

(* ------------------------------------------------------------------ *)
(* Pinned kernel digest                                                *)
(* ------------------------------------------------------------------ *)

(* Every fault kind the simulator handles: stuck-at and transition on every
   net, stuck-at on every gate pin (flip-flop pins included), every UDFM
   entry of every gate, and a few bridges between arbitrary nets. *)
let every_kind_faults nl =
  let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 } in
  let kinds = ref [] in
  let add k = kinds := k :: !kinds in
  Array.iter
    (fun (nn : N.net) ->
      let n = nn.N.net_id in
      add (F.Stuck (F.On_net n, F.Sa0));
      add (F.Stuck (F.On_net n, F.Sa1));
      add (F.Transition (F.On_net n, F.Slow_to_rise));
      add (F.Transition (F.On_net n, F.Slow_to_fall)))
    nl.N.nets;
  Array.iteri
    (fun gid (g : N.gate) ->
      Array.iteri
        (fun pin _ ->
          add (F.Stuck (F.On_pin (gid, pin), F.Sa0));
          add (F.Stuck (F.On_pin (gid, pin), F.Sa1)))
        g.N.fanins;
      List.iteri
        (fun idx _ -> add (F.Internal (gid, idx)))
        (Dfm_cellmodel.Udfm.for_cell g.N.cell.Cell.name).Dfm_cellmodel.Udfm.entries)
    nl.N.gates;
  let rng = Rng.create 41 in
  for _ = 1 to 24 do
    let a = Rng.int rng (N.num_nets nl) and b = Rng.int rng (N.num_nets nl) in
    if a <> b then (add (F.Bridge (a, b, F.Wired_and)); add (F.Bridge (a, b, F.Wired_or)))
  done;
  List.rev !kinds |> List.mapi (fun fault_id kind -> { F.fault_id; kind; origin })

(* [detect_word], [init_word] and [syndrome] of every fault over 16 random
   blocks, folded into one hash.  The constants were recorded before the
   simulation kernel was rewritten; any change to what the kernel computes
   moves them. *)
let kernel_digest nl =
  let fs = Fs.prepare nl in
  let ls = Fs.sim fs in
  let faults = every_kind_faults nl in
  let rng = Rng.create 2019 in
  let module H = Dfm_util.Hash64 in
  let h = ref (H.of_int (List.length faults)) in
  for _ = 1 to 16 do
    let good = Ls.run ls (Ls.random_words ls rng) in
    List.iter
      (fun f ->
        h := H.mix !h (Fs.detect_word fs ~good f);
        h := H.mix !h (Fs.init_word fs ~good f);
        List.iter
          (fun (n, w) -> h := H.mix (H.mix !h (H.of_int n)) w)
          (Fs.syndrome fs ~good f))
      faults
  done;
  (List.length faults, H.to_hex !h)

let test_kernel_digest () =
  List.iter
    (fun (file, faults, digest) ->
      let n, d = kernel_digest (Examples.netlist file) in
      Alcotest.(check int) (file ^ ": faults") faults n;
      Alcotest.(check string) (file ^ ": digest") digest d)
    [ ("sparc_ffu_s025.nl", 4060, "7c69fb79cec99ffa"); ("sparc_spu_s025.nl", 4676, "c17cec49a70872af") ]

let prop_pattern_word_roundtrip =
  QCheck.Test.make ~name:"pattern -> words -> pattern roundtrip" ~count:100
    QCheck.(small_list bool)
    (fun bits ->
      let pattern = Array.of_list bits in
      let words = Ls.words_of_pattern pattern in
      (* every bit position of a broadcast word reads back the pattern *)
      List.for_all (fun b -> Ls.pattern_of_words words b = pattern) [ 0; 13; 63 ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_logic_sim_matches_reference;
    QCheck_alcotest.to_alcotest prop_fault_sim_stuck_matches_reference;
    Alcotest.test_case "activation word" `Quick test_activation_word;
    Alcotest.test_case "transition init word" `Quick test_transition_init_word;
    Alcotest.test_case "bridge fault sim" `Quick test_bridge_fault_sim;
    Alcotest.test_case "dff internal fault" `Quick test_dff_internal_fault_detection;
    Alcotest.test_case "kernel digest: example netlists" `Quick test_kernel_digest;
    QCheck_alcotest.to_alcotest prop_pattern_word_roundtrip;
  ]

module N = Dfm_netlist.Netlist
module B = N.Builder
module Rng = Dfm_util.Rng
module Tt = Dfm_logic.Truthtable

type ctx = { b : B.b; rng : Rng.t; mutable state_banks : int }

let lib = Dfm_cellmodel.Osu018.library

let make ~name ~seed = { b = B.create ~name lib; rng = Rng.create seed; state_banks = 0 }

let pis ctx prefix n = List.init n (fun i -> B.add_pi ctx.b (Printf.sprintf "%s%d" prefix i))

let pos ctx prefix nets =
  List.iteri (fun i n -> B.mark_po ctx.b (Printf.sprintf "%s%d" prefix i) n) nets

let g1 ctx cell a = B.add_gate ctx.b ~cell [| a |]
let g2 ctx cell a b = B.add_gate ctx.b ~cell [| a; b |]

let inv ctx a = g1 ctx "INVX1" a
let and2 ctx a b = g2 ctx "AND2X2" a b
let or2 ctx a b = g2 ctx "OR2X2" a b
let xor2 ctx a b = g2 ctx "XOR2X1" a b
let mux2 ctx ~sel a b = B.add_gate ctx.b ~cell:"MUX2X1" [| a; b; sel |]

let rec tree op ctx = function
  | [] -> invalid_arg "Motifs: empty tree"
  | [ x ] -> x
  | xs ->
      let rec pair = function
        | a :: b :: rest -> op ctx a b :: pair rest
        | [ a ] -> [ a ]
        | [] -> []
      in
      tree op ctx (pair xs)

let xor_tree ctx nets = tree xor2 ctx nets
let and_tree ctx nets = tree and2 ctx nets
let or_tree ctx nets = tree or2 ctx nets

(* ------------------------------------------------------------------ *)
(* Datapath motifs                                                      *)
(* ------------------------------------------------------------------ *)

let full_adder ctx a b cin =
  let axb = xor2 ctx a b in
  let sum = xor2 ctx axb cin in
  (* carry = (a & b) | (cin & (a ^ b)), built as !AOI22 *)
  let aoi = B.add_gate ctx.b ~cell:"AOI22X1" [| a; b; cin; axb |] in
  let cout = inv ctx aoi in
  (sum, cout)

let ripple_adder ctx xs ys ~cin =
  if List.length xs <> List.length ys then invalid_arg "Motifs.ripple_adder";
  let carry = ref cin in
  let sums =
    List.map2
      (fun a b ->
        let s, c = full_adder ctx a b !carry in
        carry := c;
        s)
      xs ys
  in
  (sums, !carry)

let incrementer ctx xs =
  let carry = ref None in
  List.map
    (fun a ->
      match !carry with
      | None ->
          carry := Some a;
          inv ctx a
      | Some c ->
          let s = xor2 ctx a c in
          carry := Some (and2 ctx a c);
          s)
    xs

let equality ctx xs ys =
  let bits = List.map2 (fun a b -> g2 ctx "XNOR2X1" a b) xs ys in
  and_tree ctx bits

let mux_word ctx ~sel xs ys = List.map2 (fun a b -> mux2 ctx ~sel a b) xs ys

(* A logarithmic rotator (barrel shifter that wraps).  Rotation rather than
   zero-fill keeps every mux input a live signal: a zero-filled shifter would
   plant constant nets along its whole width and with them an artificial
   ribbon of undetectable faults dominating the cluster statistics. *)
let barrel_shift ctx word ~sel =
  let n = List.length word in
  let stage word k s =
    let arr = Array.of_list word in
    List.init n (fun i ->
        let rotated = arr.((i - (1 lsl k) + (n lsl 4)) mod n) in
        mux2 ctx ~sel:s arr.(i) rotated)
  in
  let result = ref word in
  List.iteri (fun k s -> result := stage !result k s) sel;
  !result

(* ------------------------------------------------------------------ *)
(* S-boxes through the technology mapper                                *)
(* ------------------------------------------------------------------ *)

let full_table = lazy (Dfm_synth.Mapper.build_table lib)

(* Inline a mapped combinational netlist into the open builder, connecting
   its PIs to the given nets; returns the nets of its POs. *)
let inline ctx (sub : N.t) input_nets =
  let net_of = Array.make (N.num_nets sub) (-1) in
  Array.iteri
    (fun i (_, nid) -> net_of.(nid) <- List.nth input_nets i)
    sub.N.pis;
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const v -> net_of.(nn.N.net_id) <- B.const_net ctx.b v
      | N.Pi _ | N.Gate_out _ -> ())
    sub.N.nets;
  Array.iter
    (fun gid ->
      let g = N.gate sub gid in
      let fanins = Array.map (fun fn -> net_of.(fn)) g.N.fanins in
      net_of.(g.N.fanout) <- B.add_gate ctx.b ~cell:g.N.cell.Dfm_netlist.Cell.name fanins)
    (N.topo_order sub);
  Array.to_list (Array.map (fun (_, nid) -> net_of.(nid)) sub.N.pos)

let sbox ctx ins n_out =
  let k = min 6 (List.length ins) in
  let used = List.filteri (fun i _ -> i < k) ins in
  let aig = Dfm_synth.Aig.create () in
  let lits = Array.of_list (List.mapi (fun i _ -> Dfm_synth.Aig.input aig (Printf.sprintf "x%d" i)) used) in
  let outputs =
    List.init n_out (fun o ->
        let tt = Tt.of_bits ~arity:k (Rng.bits64 ctx.rng) in
        (Printf.sprintf "y%d" o, Dfm_synth.Convert.shannon_lit aig tt lits))
  in
  let mapped = Dfm_synth.Mapper.map (Lazy.force full_table) ~name:"sbox" aig ~outputs in
  inline ctx mapped used

(* ------------------------------------------------------------------ *)
(* Control motifs                                                       *)
(* ------------------------------------------------------------------ *)

let decoder ctx sels =
  let invs = List.map (fun s -> inv ctx s) sels in
  let k = List.length sels in
  List.init (1 lsl k) (fun m ->
      let lits =
        List.mapi (fun i (s, si) -> if (m lsr i) land 1 = 1 then s else si)
          (List.combine sels invs)
      in
      and_tree ctx lits)

let priority_encoder ctx reqs =
  (* Highest index wins: grant_i = req_i and none of the higher requests. *)
  let arr = Array.of_list reqs in
  let n = Array.length arr in
  let higher = Array.make n None in
  for i = n - 2 downto 0 do
    higher.(i) <-
      (match higher.(i + 1) with
      | None -> Some arr.(i + 1)
      | Some h -> Some (or2 ctx h arr.(i + 1)))
  done;
  List.init n (fun i ->
      match higher.(i) with
      | None -> arr.(i)
      | Some h ->
          let nh = inv ctx h in
          and2 ctx arr.(i) nh)

let cloud_cells =
  [|
    "NAND2X1"; "NAND3X1"; "NAND4X1"; "NOR2X1"; "NOR3X1"; "NOR4X1"; "AND2X2";
    "OR2X2"; "XOR2X1"; "XNOR2X1"; "AOI21X1"; "AOI22X1"; "OAI21X1"; "OAI22X1";
    "AOI211X1"; "MUX2X1"; "INVX1"; "BUFX2";
  |]

(* A cloud of random gates.  With probability [red] a gate is seeded with a
   *pair* of mutually exclusive control lines among its fanins: the cell
   input patterns requiring both lines high are unreachable, so some of the
   cell's internal (UDFM) faults — and external faults on the resulting
   near-constant output net — are undetectable.  Keeping the probability
   moderate produces localized pockets of redundancy (the clusters of the
   paper) inside an otherwise well-testable cloud. *)
let cloud ctx ~pool_a ~pool_b ~red n =
  let outputs = ref [] in
  let grown_b = ref (Array.of_list pool_b) in
  let a = Array.of_list pool_a in
  for _ = 1 to n do
    let cell_name = Rng.pick ctx.rng cloud_cells in
    let c = Dfm_netlist.Library.find lib cell_name in
    let arity = Dfm_netlist.Cell.arity c in
    let fanins = Array.init arity (fun _ -> Rng.pick ctx.rng !grown_b) in
    if Array.length a >= 2 && arity >= 2 && Rng.chance ctx.rng red then begin
      (* Two distinct mutually exclusive lines into one cell. *)
      let i = Rng.int ctx.rng (Array.length a) in
      let j = (i + 1 + Rng.int ctx.rng (Array.length a - 1)) mod Array.length a in
      fanins.(0) <- a.(i);
      fanins.(1) <- a.(j)
    end;
    let out = B.add_gate ctx.b ~cell:cell_name fanins in
    outputs := out :: !outputs;
    (* Let the cloud deepen: an output occasionally joins the data pool. *)
    if Rng.chance ctx.rng 0.4 then
      grown_b := Array.append !grown_b [| out |]
  done;
  List.rev !outputs

let onehot_cloud ctx ~hot ~data n = cloud ctx ~pool_a:hot ~pool_b:data ~red:0.22 n

let random_cloud ctx nets n = cloud ctx ~pool_a:[] ~pool_b:nets ~red:0.0 n

(* ------------------------------------------------------------------ *)
(* State                                                                *)
(* ------------------------------------------------------------------ *)

let dff = Dfm_cellmodel.Osu018.dff_name

let register ctx ?enable data =
  match enable with
  | None -> List.map (fun d -> B.add_gate ctx.b ~cell:dff [| d |]) data
  | Some en ->
      List.map
        (fun d ->
          let q = B.declare_net ctx.b (Printf.sprintf "q%d" d) in
          let d' = mux2 ctx ~sel:en q d in
          B.add_gate_driving ctx.b ~cell:dff [| d' |] q;
          q)
        data

let state_feedback ctx n f =
  (* A per-context bank serial keeps Q-net names unique when one block
     instantiates several state banks of the same width (tv80's acc and
     pc): duplicate net names break the Netlist_io text round trip. *)
  let bank = ctx.state_banks in
  ctx.state_banks <- bank + 1;
  let qs = List.init n (fun i -> B.declare_net ctx.b (Printf.sprintf "st%d_%d_%d" bank n i)) in
  let next = f qs in
  if List.length next <> n then invalid_arg "Motifs.state_feedback";
  List.iter2 (fun d q -> B.add_gate_driving ctx.b ~cell:dff [| d |] q) next qs;
  qs

(* Rebuild a finished netlist inside a fresh builder, returning the builder
   context and the old-net -> new-net mapping.  Flip-flop outputs are
   declared first so sequential feedback survives the rebuild. *)
let rebuild (nl : N.t) =
  let ctx2 = { b = B.create ~name:nl.N.name lib; rng = Rng.create 0; state_banks = 0 } in
  let net_of = Array.make (N.num_nets nl) (-1) in
  Array.iter
    (fun (p, nid) -> net_of.(nid) <- B.add_pi ctx2.b p)
    nl.N.pis;
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const v -> net_of.(nn.N.net_id) <- B.const_net ctx2.b v
      | N.Pi _ | N.Gate_out _ -> ())
    nl.N.nets;
  let seq = N.seq_gates nl in
  List.iter
    (fun (g : N.gate) -> net_of.(g.N.fanout) <- B.declare_net ctx2.b (N.net nl g.N.fanout).N.net_name)
    seq;
  Array.iter
    (fun gid ->
      let g = N.gate nl gid in
      let fanins = Array.map (fun fn -> net_of.(fn)) g.N.fanins in
      net_of.(g.N.fanout) <- B.add_gate ctx2.b ~name:g.N.gate_name ~cell:g.N.cell.Dfm_netlist.Cell.name fanins)
    (N.topo_order nl);
  List.iter
    (fun (g : N.gate) ->
      B.add_gate_driving ctx2.b ~name:g.N.gate_name ~cell:g.N.cell.Dfm_netlist.Cell.name
        (Array.map (fun fn -> net_of.(fn)) g.N.fanins)
        net_of.(g.N.fanout))
    seq;
  Array.iter (fun (p, nid) -> B.mark_po ctx2.b p net_of.(nid)) nl.N.pos;
  (ctx2, net_of)

(* Synthesized netlists have no dangling logic (it would be swept), so every
   driven net must reach an observable point.  Dangling nets are compressed
   through XOR trees into extra outputs; XOR is transparent, so the
   observability of each drained net is preserved while genuine redundancy
   (constant nets inside the one-hot clouds) remains redundant. *)
let finish ctx =
  let nl = B.finish ctx.b in
  let po_nets =
    Array.fold_left (fun acc (_, n) -> n :: acc) [] nl.N.pos |> List.sort_uniq compare
  in
  let dangling =
    Array.to_list nl.N.nets
    |> List.filter_map (fun (nn : N.net) ->
           match nn.N.driver with
           | N.Gate_out _ when nn.N.sinks = [] && not (List.mem nn.N.net_id po_nets) ->
               Some nn.N.net_id
           | N.Gate_out _ | N.Pi _ | N.Const _ -> None)
  in
  if dangling = [] then nl
  else begin
    let ctx2, net_of = rebuild nl in
    let drained = List.map (fun n -> net_of.(n)) dangling in
    (* Chunked XOR trees: one drain output per 16 swept nets. *)
    let rec chunks k = function
      | [] -> []
      | xs ->
          let head = List.filteri (fun i _ -> i < k) xs in
          let tail = List.filteri (fun i _ -> i >= k) xs in
          head :: chunks k tail
    in
    List.iteri
      (fun i chunk -> B.mark_po ctx2.b (Printf.sprintf "drain%d" i) (xor_tree ctx2 chunk))
      (chunks 16 drained);
    B.finish ctx2.b
  end

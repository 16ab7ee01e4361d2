module N = Dfm_netlist.Netlist
module A = Bigarray.Array1
module W = Dfm_logic.Wordprog

type t = {
  nl : N.t;
  ins : (string * int) list;
  obs : (string * int) list;
  order : int array;
}

let prepare nl =
  { nl; ins = N.input_nets nl; obs = N.observe_nets nl; order = N.topo_order nl }

let netlist t = t.nl
let inputs t = t.ins
let observes t = t.obs
let topo t = t.order

(* One fresh block seed per call; each input's word is derived from the
   block seed and the input's *label*, so the pattern a given flip-flop or
   primary input sees does not depend on how many other inputs exist or on
   gate numbering.  This keeps fault statuses stable across the small
   netlist edits of the resynthesis loop. *)
let random_words t rng =
  let block = Dfm_util.Rng.bits64 rng in
  let ins = Array.of_list t.ins in
  Array.map
    (fun (label, _) ->
      let label_rng = Dfm_util.Rng.of_name label in
      let seed = Int64.logxor (Dfm_util.Rng.bits64 label_rng) block in
      Dfm_util.Rng.bits64 (Dfm_util.Rng.create (Int64.to_int seed)))
    ins

let words_of_pattern pattern =
  Array.map (fun b -> if b then -1L else 0L) pattern

let pattern_of_words words b =
  Array.map (fun w -> Int64.logand (Int64.shift_right_logical w b) 1L = 1L) words

type values = Words.t

let run t ins =
  let values = Words.create (N.num_nets t.nl) in
  List.iteri (fun i (_, nid) -> A.set values nid ins.(i)) t.ins;
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const v -> A.set values nn.N.net_id (if v then -1L else 0L)
      | N.Pi _ | N.Gate_out _ -> ())
    t.nl.N.nets;
  let regs = W.create_regs () in
  Array.iter
    (fun gid ->
      let g = t.nl.N.gates.(gid) in
      let fanins = g.N.fanins in
      for k = 0 to Array.length fanins - 1 do
        A.unsafe_set regs k (A.get values fanins.(k))
      done;
      let p = g.N.cell.Dfm_netlist.Cell.prog in
      W.exec p regs;
      A.set values g.N.fanout (A.unsafe_get regs p.W.out))
    t.order;
  values

let value (v : values) n = A.get v n

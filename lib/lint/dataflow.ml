module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module Tt = Dfm_logic.Truthtable

type value = V0 | V1 | VX

(* Exact function of a net over a small set of free root variables (primary
   and pseudo-primary input nets).  [bits] bit [i] is the net's value under
   the assignment where root [sup.(j)] takes bit [j] of [i].  Only kept while
   the support stays within [max_support] roots (<= 64 rows), which is enough
   to see through reconvergent, correlated logic ([XOR(a, a)], decoder
   lines) that plain three-valued propagation cannot prove constant. *)
type fn = { sup : int array; bits : int64 }

let max_support = 6

type t = {
  values : value array;        (* per net: proven three-valued value *)
  observable : bool array;     (* per net: PO or flip-flop D net *)
  reaches_obs : bool array;    (* per net: structural comb path to observable *)
}

let fn_const b = { sup = [||]; bits = (if b then 1L else 0L) }
let fn_var n = { sup = [| n |]; bits = 2L }

(* Evaluate [f] under row [row] of an assignment over [union] (a sorted
   superset of [f.sup]). *)
let fn_eval_row f union row =
  let i = ref 0 in
  Array.iteri
    (fun j r ->
      let pos = ref (-1) in
      Array.iteri (fun p u -> if u = r then pos := p) union;
      if (row lsr !pos) land 1 = 1 then i := !i lor (1 lsl j))
    f.sup;
  Int64.to_int (Int64.logand (Int64.shift_right_logical f.bits !i) 1L) = 1

let union_support fns =
  let sup =
    List.sort_uniq compare
      (List.concat_map (fun f -> Array.to_list f.sup) fns)
  in
  if List.length sup > max_support then None else Some (Array.of_list sup)

let value t n = t.values.(n)
let observable t n = t.observable.(n)
let reaches_observable t n = t.reaches_obs.(n)

let proven_constants t =
  let acc = ref [] in
  Array.iteri
    (fun n v -> match v with V0 -> acc := (n, false) :: !acc | V1 -> acc := (n, true) :: !acc | VX -> ())
    t.values;
  List.rev !acc

(* Restrict a cell function by its proven-constant fanins; the fixed inputs
   become vacuous (arity is unchanged). *)
let restrict values (g : N.gate) =
  let f = ref g.N.cell.Cell.func in
  Array.iteri
    (fun k fn ->
      match values.(fn) with
      | V0 -> f := Tt.cofactor !f k false
      | V1 -> f := Tt.cofactor !f k true
      | VX -> ())
    g.N.fanins;
  !f

let analyze nl =
  let nn = N.num_nets nl in
  let values = Array.make nn VX in
  let funcs = Array.make nn None in
  Array.iter
    (fun (n : N.net) ->
      match n.N.driver with
      | N.Const b ->
          values.(n.N.net_id) <- (if b then V1 else V0);
          funcs.(n.N.net_id) <- Some (fn_const b)
      | N.Pi _ | N.Gate_out _ -> ())
    nl.N.nets;
  List.iter
    (fun (_, n) -> if funcs.(n) = None then funcs.(n) <- Some (fn_var n))
    (N.input_nets nl);
  let fanin_fn fn_net =
    match values.(fn_net) with
    | V0 -> Some (fn_const false)
    | V1 -> Some (fn_const true)
    | VX -> funcs.(fn_net)
  in
  let compose (g : N.gate) =
    let fns = Array.map fanin_fn g.N.fanins in
    if Array.exists (fun o -> o = None) fns then None
    else
      let fns = Array.map Option.get fns in
      match union_support (Array.to_list fns) with
      | None -> None
      | Some union ->
          let rows = 1 lsl Array.length union in
          let bits = ref 0L in
          for row = 0 to rows - 1 do
            let m = ref 0 in
            Array.iteri
              (fun pin f -> if fn_eval_row f union row then m := !m lor (1 lsl pin))
              fns;
            if Tt.eval_index g.N.cell.Cell.func !m then
              bits := Int64.logor !bits (Int64.shift_left 1L row)
          done;
          Some { sup = union; bits = !bits }
  in
  let order = N.topo_order nl in
  Array.iter
    (fun gid ->
      let g = N.gate nl gid in
      (match compose g with
      | Some f ->
          let rows = 1 lsl Array.length f.sup in
          let full = if rows = 64 then Int64.minus_one else Int64.sub (Int64.shift_left 1L rows) 1L in
          if Int64.equal f.bits 0L then begin
            values.(g.N.fanout) <- V0;
            funcs.(g.N.fanout) <- Some (fn_const false)
          end
          else if Int64.equal f.bits full then begin
            values.(g.N.fanout) <- V1;
            funcs.(g.N.fanout) <- Some (fn_const true)
          end
          else funcs.(g.N.fanout) <- Some f
      | None -> ());
      if values.(g.N.fanout) = VX then begin
        (* Fallback when the exact function outgrew its support: cofactor
           the proven-constant fanins and test for a degenerate cell. *)
        let f = restrict values g in
        let ones = Tt.count_ones f in
        if ones = 0 then values.(g.N.fanout) <- V0
        else if ones = 1 lsl Tt.arity f then values.(g.N.fanout) <- V1
      end)
    order;
  let observable = Array.make nn false in
  List.iter (fun (_, n) -> observable.(n) <- true) (N.observe_nets nl);
  (* Structural observability: reverse-topological sweep over combinational
     gates (consumers are processed before their producers, so the fanout
     net's flag is final when a gate pushes it onto its fanins). *)
  let reaches_obs = Array.copy observable in
  for i = Array.length order - 1 downto 0 do
    let g = N.gate nl order.(i) in
    if reaches_obs.(g.N.fanout) then
      Array.iter (fun fn -> reaches_obs.(fn) <- true) g.N.fanins
  done;
  { values; observable; reaches_obs }

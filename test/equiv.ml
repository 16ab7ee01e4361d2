module Tt = Dfm_logic.Truthtable
module Netlist = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell

type verdict =
  | Equivalent
  | Different of string
  | Interface_mismatch of string

(* Build BDDs for every net of [t], with controllable points mapped to BDD
   variables via [var_of_label]. *)
let build_bdds man t var_of_label =
  let nets = Array.make (Netlist.num_nets t) None in
  let set n v = nets.(n) <- Some v in
  List.iter
    (fun (label, n) -> set n (Bdd.var man (var_of_label label)))
    (Netlist.input_nets t);
  Array.iter
    (fun (nn : Netlist.net) ->
      match nn.Netlist.driver with
      | Netlist.Const v -> set nn.Netlist.net_id (if v then Bdd.one man else Bdd.zero man)
      | Netlist.Pi _ | Netlist.Gate_out _ -> ())
    t.Netlist.nets;
  let order = Netlist.topo_order t in
  Array.iter
    (fun gid ->
      let g = Netlist.gate t gid in
      let fanin_bdds =
        Array.map
          (fun n ->
            match nets.(n) with
            | Some v -> v
            | None -> failwith "Equiv: fanin not computed (cycle through logic?)")
          g.Netlist.fanins
      in
      (* Shannon-expand the cell truth table over the fanin BDDs. *)
      let f = g.Netlist.cell.Cell.func in
      let arity = Tt.arity f in
      let acc = ref (Bdd.zero man) in
      for m = 0 to (1 lsl arity) - 1 do
        if Tt.eval_index f m then begin
          let cube = ref (Bdd.one man) in
          for k = 0 to arity - 1 do
            let v = fanin_bdds.(k) in
            let lit = if (m lsr k) land 1 = 1 then v else Bdd.bnot man v in
            cube := Bdd.band man !cube lit
          done;
          acc := Bdd.bor man !acc !cube
        end
      done;
      if arity = 0 then
        acc := (if Tt.eval_index f 0 then Bdd.one man else Bdd.zero man);
      set g.Netlist.fanout !acc)
    order;
  nets

let check t1 t2 =
  let labels l = List.map fst l |> List.sort compare in
  let in1 = labels (Netlist.input_nets t1) and in2 = labels (Netlist.input_nets t2) in
  let out1 = labels (Netlist.observe_nets t1) and out2 = labels (Netlist.observe_nets t2) in
  if in1 <> in2 then Interface_mismatch "inputs"
  else if out1 <> out2 then Interface_mismatch "outputs"
  else begin
    let var_tbl = Hashtbl.create 64 in
    List.iteri (fun i l -> Hashtbl.add var_tbl l i) in1;
    let var_of_label l = Hashtbl.find var_tbl l in
    let man = Bdd.man () in
    let nets1 = build_bdds man t1 var_of_label in
    let nets2 = build_bdds man t2 var_of_label in
    let value nets (_, n) = match nets.(n) with Some v -> v | None -> assert false in
    let rec compare_outputs = function
      | [] -> Equivalent
      | (label, _) :: rest -> (
          let o1 = List.find (fun (l, _) -> l = label) (Netlist.observe_nets t1) in
          let o2 = List.find (fun (l, _) -> l = label) (Netlist.observe_nets t2) in
          if Bdd.equal (value nets1 o1) (value nets2 o2) then compare_outputs rest
          else Different label)
    in
    compare_outputs (Netlist.observe_nets t1)
  end

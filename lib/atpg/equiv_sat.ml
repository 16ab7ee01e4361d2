module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module Solver = Dfm_sat.Solver
module Tseitin = Dfm_sat.Tseitin
module Cert = Dfm_sat.Cert

type verdict =
  | Equivalent
  | Different of string
  | Interface_mismatch of string

(* Encode the whole combinational view of [t] into [solver], with
   controllable points taken from [var_of_label].  Returns the variable of
   each net. *)
let encode solver t var_of_label =
  let vars = Array.make (N.num_nets t) 0 in
  List.iter (fun (label, n) -> vars.(n) <- var_of_label label) (N.input_nets t);
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const b ->
          let v = Solver.new_var solver in
          vars.(nn.N.net_id) <- v;
          if b then Tseitin.const_true solver v else Tseitin.const_false solver v
      | N.Pi _ | N.Gate_out _ -> ())
    t.N.nets;
  Array.iter
    (fun gid ->
      let g = N.gate t gid in
      let out = Solver.new_var solver in
      vars.(g.N.fanout) <- out;
      let ins = Array.map (fun fn -> vars.(fn)) g.N.fanins in
      Tseitin.of_truthtable solver ~out ins g.N.cell.Cell.func)
    (N.topo_order t);
  vars

let check ?(certify = false) ?counted t1 t2 =
  let labels l = List.map fst l |> List.sort compare in
  let in1 = labels (N.input_nets t1) and in2 = labels (N.input_nets t2) in
  let out1 = labels (N.observe_nets t1) and out2 = labels (N.observe_nets t2) in
  if in1 <> in2 then Interface_mismatch "inputs"
  else if out1 <> out2 then Interface_mismatch "outputs"
  else
    Dfm_obs.Span.with_ "equiv.check" @@ fun () ->
    let solver = Solver.create ?counted () in
    let cert = if certify then Some (Cert.create solver) else None in
    let var_tbl = Hashtbl.create 64 in
    List.iter
      (fun label ->
        if not (Hashtbl.mem var_tbl label) then
          Hashtbl.add var_tbl label (Solver.new_var solver))
      in1;
    let var_of_label l = Hashtbl.find var_tbl l in
    let v1 = encode solver t1 var_of_label in
    let v2 = encode solver t2 var_of_label in
    (* Check output labels one at a time so a difference can be named; each
       label is an activation-guarded query on the shared solver, so the
       per-label difference constraints never pollute each other and the
       learnt clauses of a proved-equivalent label speed up the next. *)
    let rec go = function
      | [] -> Equivalent
      | label :: rest ->
          let n1 = List.assoc label (N.observe_nets t1) in
          let n2 = List.assoc label (N.observe_nets t2) in
          let act = Solver.new_var solver in
          let d = Solver.new_var solver in
          Tseitin.xor_ ~act solver ~out:d v1.(n1) v2.(n2);
          Solver.add_clause solver [ -act; d ];
          (match Solver.solve ~assumptions:[ act ] solver with
          | Solver.Sat ->
              (* Certified mode: the distinguishing assignment must satisfy
                 the traced miter clauses before we report a difference. *)
              (match cert with
              | Some c -> Cert.check_model c ~assumptions:[ act ] ~value:(Solver.value solver)
              | None -> ());
              Different label
          | Solver.Unsat ->
              (* Certified mode: replay this label's equivalence proof
                 through the independent checker before trusting it. *)
              (match cert with
              | Some c -> Cert.check_unsat c ~assumptions:[ act ]
              | None -> ());
              Solver.retire solver ~act ~locals:[ d ];
              go rest
          | Solver.Unknown -> Different (label ^ " (unknown)"))
    in
    go out1

module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Atpg = Dfm_atpg.Atpg

type t = {
  nl : N.t;
  net_of_name : (string, int) Hashtbl.t;  (* -1 for a name several nets share *)
  first_internal : int array;  (* per gate: the id of its first internal fault, or -1 *)
  status : Atpg.status array;
  external_ : (F.kind, Atpg.status) Hashtbl.t;  (* semantic verdicts only *)
}

let index (d : Design.t) =
  let nl = d.Design.netlist in
  let status = d.Design.classification.Atpg.status in
  let net_of_name = Hashtbl.create (N.num_nets nl) in
  Array.iter
    (fun (n : N.net) ->
      let id = if Hashtbl.mem net_of_name n.N.net_name then -1 else n.N.net_id in
      Hashtbl.replace net_of_name n.N.net_name id)
    nl.N.nets;
  let first_internal = Array.make (N.num_gates nl) (-1) in
  let external_ = Hashtbl.create 4096 in
  Array.iteri
    (fun fid (f : F.t) ->
      match f.F.kind with
      | F.Internal (g, 0) -> first_internal.(g) <- fid
      | F.Internal _ -> ()
      | (F.Stuck _ | F.Transition _ | F.Bridge _) as k ->
          if status.(fid) <> Atpg.Aborted then Hashtbl.replace external_ k status.(fid))
    d.Design.fault_list.Dfm_guidelines.Translate.faults;
  { nl; net_of_name; first_internal; status; external_ }

let prove_region ~sub mapped =
  let fail what = raise (Dfm_sat.Cert.Check_failed ("a remap changes its region's " ^ what)) in
  match Dfm_atpg.Equiv_sat.check ~certify:true ~counted:false sub mapped with
  | Dfm_atpg.Equiv_sat.Equivalent -> ()
  | Dfm_atpg.Equiv_sat.Different label -> fail ("function at " ^ label)
  | Dfm_atpg.Equiv_sat.Interface_mismatch what -> fail what

(* Base names of the nets the text roundtrip renamed [base~id]: two nets of
   the replaced netlist shared that name, so it identifies neither. *)
let disambiguated nl =
  let bases = Hashtbl.create 16 in
  Array.iter
    (fun (n : N.net) ->
      match String.rindex_opt n.N.net_name '~' with
      | Some i -> Hashtbl.replace bases (String.sub n.N.net_name 0 i) ()
      | None -> ())
    nl.N.nets;
  bases

let known ix ~region nl faults =
  let p = ix.nl in
  let in_region = Array.make (N.num_gates p) false in
  List.iter (fun g -> in_region.(g) <- true) region;
  let shared = disambiguated nl in
  (* The parent net named like a candidate net, or -1. *)
  let parent_net (n : N.net) =
    if Hashtbl.mem shared n.N.net_name then -1
    else Option.value ~default:(-1) (Hashtbl.find_opt ix.net_of_name n.N.net_name)
  in
  (* Kept gates and nets: the parent counterpart, or -1. *)
  let gate_map =
    Array.map
      (fun (g : N.gate) ->
        let pn = parent_net (N.net nl g.N.fanout) in
        if pn < 0 then -1
        else
          match (N.net p pn).N.driver with
          | N.Gate_out pg
            when (not in_region.(pg)) && (N.gate p pg).N.cell.Cell.name = g.N.cell.Cell.name ->
              pg
          | N.Gate_out _ | N.Pi _ | N.Const _ -> -1)
      nl.N.gates
  in
  let net_map =
    Array.map
      (fun (n : N.net) ->
        match n.N.driver with
        | N.Gate_out g -> if gate_map.(g) < 0 then -1 else (N.gate p gate_map.(g)).N.fanout
        | N.Pi _ -> (
            let pn = parent_net n in
            if pn < 0 then -1 else match (N.net p pn).N.driver with N.Pi _ -> pn | _ -> -1)
        | N.Const _ -> -1)
      nl.N.nets
  in
  let loc = function
    | F.On_net n -> if net_map.(n) < 0 then None else Some (F.On_net net_map.(n))
    | F.On_pin (g, pin) -> if gate_map.(g) < 0 then None else Some (F.On_pin (gate_map.(g), pin))
  in
  let external_ k = Hashtbl.find_opt ix.external_ k in
  Array.map
    (fun (f : F.t) ->
      match f.F.kind with
      | F.Internal (g, e) ->
          (* same cell, hence the same UDFM entries in the same order *)
          let pg = gate_map.(g) in
          if pg < 0 || ix.first_internal.(pg) < 0 then None
          else (
            match ix.status.(ix.first_internal.(pg) + e) with
            | Atpg.Aborted -> None
            | v -> Some v)
      | F.Stuck (l, pol) -> Option.bind (loc l) (fun l -> external_ (F.Stuck (l, pol)))
      | F.Transition (l, tr) -> Option.bind (loc l) (fun l -> external_ (F.Transition (l, tr)))
      | F.Bridge (a, b, bk) ->
          let pa = net_map.(a) and pb = net_map.(b) in
          if pa < 0 || pb < 0 then None
          else
            match external_ (F.Bridge (pa, pb, bk)) with
            | Some v -> Some v
            | None -> external_ (F.Bridge (pb, pa, bk)))
    faults

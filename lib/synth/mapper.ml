module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module Library = Dfm_netlist.Library
module Tt = Dfm_logic.Truthtable

exception Unmappable of string

(* A match: a cell plus the assignment of its pins to cut-leaf indices (each
   possibly through an inverter), and whether the cell computes the
   complement of the cut function.  Input-phase matching is what lets thin
   libraries (e.g. after the resynthesis procedure excludes the large cells)
   still cover functions like a' * b. *)
type match_ = {
  m_cell : Cell.t;
  m_pins : (int * bool) array;  (* pin index -> (leaf index, negated?) *)
  m_inverted : bool;
}

let num_negated_leaves m =
  Array.to_list m.m_pins
  |> List.filter_map (fun (leaf, neg) -> if neg then Some leaf else None)
  |> List.sort_uniq compare |> List.length

type table = {
  library : Library.t;                       (* the cells the matches draw on *)
  tbl : (int * int, match_ list) Hashtbl.t;  (* (n_leaves, tt bits) -> candidates *)
  inverter : match_ option;                  (* best cover of f(x) = not x *)
}

let max_cut = 4

(* All pin assignments of [a] pins onto [s] leaves with per-pin phase, such
   that every leaf is used by at least one pin. *)
let assignments a s =
  let options =
    List.concat_map (fun leaf -> [ (leaf, false); (leaf, true) ]) (List.init s (fun i -> i))
  in
  let rec go k acc =
    if k = a then [ List.rev acc ]
    else List.concat_map (fun o -> go (k + 1) (o :: acc)) options
  in
  go 0 []
  |> List.filter (fun f ->
         List.for_all (fun v -> List.exists (fun (leaf, _) -> leaf = v) f)
           (List.init s (fun i -> i)))
  |> List.map Array.of_list

(* The function over [s] leaf variables induced by wiring cell pins to
   (possibly inverted) leaves according to [assign]. *)
let induced_tt (cell : Cell.t) assign s =
  Tt.create s (fun leaf_vals ->
      let pin_vals = Array.map (fun (leaf, neg) -> leaf_vals.(leaf) <> neg) assign in
      Tt.eval cell.Cell.func pin_vals)

let tt_key tt = (Tt.arity tt, Int64.to_int (Tt.bits tt))

(* Cheapest direct, phase-free cover of NOT, used to realize complemented
   outputs and negated match inputs (it must itself need no inverters);
   ties go to the first entry of the match list. *)
let cheapest_inverter tbl =
  let not_tt = Tt.lnot (Tt.var 1 0) in
  match Hashtbl.find_opt tbl (tt_key not_tt) with
  | None -> None
  | Some ms -> (
      match List.filter (fun m -> (not m.m_inverted) && num_negated_leaves m = 0) ms with
      | [] -> None
      | direct ->
          Some
            (List.fold_left
               (fun best m -> if m.m_cell.Cell.area < best.m_cell.Cell.area then m else best)
               (List.hd direct) direct))

let build_table library =
  let tbl = Hashtbl.create 1024 in
  let add key m =
    let old = try Hashtbl.find tbl key with Not_found -> [] in
    Hashtbl.replace tbl key (m :: old)
  in
  List.iter
    (fun (cell : Cell.t) ->
      let a = Cell.arity cell in
      if a >= 1 && a <= max_cut then
        for s = 1 to a do
          List.iter
            (fun assign ->
              let tt = induced_tt cell assign s in
              (* Skip matches with vacuous leaves: the same function is
                 registered under the smaller leaf count. *)
              if Tt.support_size tt = s then begin
                add (tt_key tt) { m_cell = cell; m_pins = assign; m_inverted = false };
                add (tt_key (Tt.lnot tt)) { m_cell = cell; m_pins = assign; m_inverted = true }
              end)
            (assignments a s)
        done)
    (Library.combinational library);
  { library; tbl; inverter = cheapest_inverter tbl }

let library t = t.library

(* A match list of the restricted library is the full list without the
   excluded cells' entries, in the same order: [build_table] adds every
   cell's matches in library order, and [Library.restrict] keeps that
   order.  Untouched lists are shared with [t]; the inverter is chosen
   again from the filtered NOT list, exactly as [build_table] would. *)
let restrict t ~excluded =
  let kept m = not (List.mem m.m_cell.Cell.name excluded) in
  let tbl = Hashtbl.copy t.tbl in
  Hashtbl.filter_map_inplace
    (fun _ ms ->
      if List.for_all kept ms then Some ms
      else match List.filter kept ms with [] -> None | ms -> Some ms)
    tbl;
  { library = Library.restrict t.library ~excluded; tbl; inverter = cheapest_inverter tbl }

let can_express_basics t =
  let have tt = Hashtbl.mem t.tbl (tt_key tt) in
  let v0 = Tt.var 2 0 and v1 = Tt.var 2 1 in
  t.inverter <> None && have (Tt.land_ v0 v1)

(* ------------------------------------------------------------------ *)
(* Cut enumeration                                                      *)
(* ------------------------------------------------------------------ *)

type cut = { leaves : int array (* sorted node ids *) }

let cut_union a b =
  let merged =
    List.sort_uniq compare (Array.to_list a.leaves @ Array.to_list b.leaves)
  in
  if List.length merged > max_cut then None else Some { leaves = Array.of_list merged }

let subset a b =
  (* a.leaves subset of b.leaves, both sorted *)
  let la = a.leaves and lb = b.leaves in
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !i < Array.length la && !ok do
    if !j >= Array.length lb then ok := false
    else if lb.(!j) = la.(!i) then begin incr i; incr j end
    else if lb.(!j) < la.(!i) then incr j
    else ok := false
  done;
  !ok

let prune_cuts cuts =
  (* Dedup, drop dominated (strict superset of another), keep the smallest. *)
  let cuts = List.sort_uniq (fun a b -> compare a.leaves b.leaves) cuts in
  let non_dominated =
    List.filter
      (fun c -> not (List.exists (fun c' -> c' != c && subset c' c) cuts))
      cuts
  in
  let sorted =
    List.sort (fun a b -> compare (Array.length a.leaves) (Array.length b.leaves)) non_dominated
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take 8 sorted

(* Truth table of [node] over the cut leaves. *)
let cut_tt aig node (c : cut) =
  let nvars = Array.length c.leaves in
  let var_of = Hashtbl.create 8 in
  Array.iteri (fun k v -> Hashtbl.add var_of v k) c.leaves;
  let memo = Hashtbl.create 32 in
  let rec eval_node v =
    match Hashtbl.find_opt memo v with
    | Some tt -> tt
    | None ->
        let tt =
          match Hashtbl.find_opt var_of v with
          | Some k -> Tt.var nvars k
          | None -> (
              match Aig.kind aig v with
              | Aig.Const0 -> Tt.const0 nvars
              | Aig.Input _ ->
                  failwith "Mapper.cut_tt: input node not a cut leaf"
              | Aig.And (a, b) -> Tt.land_ (eval_lit a) (eval_lit b))
        in
        Hashtbl.add memo v tt;
        tt
  and eval_lit l =
    let tt = eval_node (Aig.node_of_lit l) in
    if Aig.is_complemented l then Tt.lnot tt else tt
  in
  eval_node node

(* Drop leaves the cut function does not depend on. *)
let normalize_cut_tt cut tt =
  let deps = List.filter (fun k -> Tt.depends_on tt k) (List.init (Tt.arity tt) (fun i -> i)) in
  let s = List.length deps in
  let leaf_of = Array.of_list deps in
  let small =
    Tt.create s (fun vals ->
        let full = Array.make (Tt.arity tt) false in
        Array.iteri (fun k d -> full.(d) <- vals.(k)) leaf_of;
        Tt.eval tt full)
  in
  let leaves = Array.map (fun d -> cut.leaves.(d)) leaf_of in
  ({ leaves }, small)

(* ------------------------------------------------------------------ *)
(* Covering                                                             *)
(* ------------------------------------------------------------------ *)

type choice = {
  ch_cut : cut;           (* normalized cut *)
  ch_match : match_;
  ch_arrival : float;
  ch_flow : float;
}

let cell_delay (c : Cell.t) = c.Cell.intrinsic_delay +. (c.Cell.drive_res *. 0.006)

let match_cost table m =
  let n_inv = num_negated_leaves m + if m.m_inverted then 1 else 0 in
  if n_inv = 0 then (m.m_cell.Cell.area, cell_delay m.m_cell)
  else
    match table.inverter with
    | Some inv ->
        ( m.m_cell.Cell.area +. (float_of_int n_inv *. inv.m_cell.Cell.area),
          cell_delay m.m_cell +. cell_delay inv.m_cell )
    | None -> (infinity, infinity)

let map ?(goal = `Delay) table ~name aig ~outputs =
  let n = Aig.num_nodes aig in
  let cuts : cut list array = Array.make n [] in
  let arrival = Array.make n 0.0 in
  let flow = Array.make n 0.0 in
  let best : choice option array = Array.make n None in
  let refs = Array.make n 1 in
  for v = 0 to n - 1 do
    match Aig.kind aig v with
    | Aig.And (a, b) ->
        refs.(Aig.node_of_lit a) <- refs.(Aig.node_of_lit a) + 1;
        refs.(Aig.node_of_lit b) <- refs.(Aig.node_of_lit b) + 1
    | Aig.Const0 | Aig.Input _ -> ()
  done;
  for v = 0 to n - 1 do
    match Aig.kind aig v with
    | Aig.Const0 -> cuts.(v) <- [ { leaves = [||] } ]
    | Aig.Input _ -> cuts.(v) <- [ { leaves = [| v |] } ]
    | Aig.And (a, b) ->
        let na = Aig.node_of_lit a and nb = Aig.node_of_lit b in
        let merged =
          List.concat_map
            (fun ca -> List.filter_map (fun cb -> cut_union ca cb) cuts.(nb))
            cuts.(na)
        in
        let all = { leaves = [| v |] } :: prune_cuts merged in
        cuts.(v) <- all;
        (* Choose the best matched cut (the trivial self-cut is excluded). *)
        let key ch =
          match goal with
          | `Delay -> (ch.ch_arrival, ch.ch_flow)
          | `Area -> (ch.ch_flow, ch.ch_arrival)
        in
        let consider ch =
          match best.(v) with
          | Some prev when key prev <= key ch -> ()
          | Some _ | None -> best.(v) <- Some ch
        in
        List.iter
          (fun c ->
            if Array.length c.leaves >= 1 && not (Array.length c.leaves = 1 && c.leaves.(0) = v)
            then begin
              let tt = cut_tt aig v c in
              let nc, ntt = normalize_cut_tt c tt in
              if Tt.support_size ntt = Tt.arity ntt && Tt.arity ntt >= 1 then
                match Hashtbl.find_opt table.tbl (tt_key ntt) with
                | None -> ()
                | Some ms ->
                    List.iter
                      (fun m ->
                        let area, delay = match_cost table m in
                        if area < infinity then begin
                          let arr =
                            Array.fold_left
                              (fun acc leaf -> Float.max acc arrival.(leaf))
                              0.0 nc.leaves
                            +. delay
                          in
                          let fl =
                            Array.fold_left
                              (fun acc leaf ->
                                acc +. (flow.(leaf) /. float_of_int (max 1 refs.(leaf))))
                              area nc.leaves
                          in
                          consider { ch_cut = nc; ch_match = m; ch_arrival = arr; ch_flow = fl }
                        end)
                      ms
            end)
          all;
        (match best.(v) with
        | Some ch ->
            arrival.(v) <- ch.ch_arrival;
            flow.(v) <- ch.ch_flow
        | None ->
            raise
              (Unmappable
                 (Printf.sprintf "node %d of %s has no cover in the allowed cells" v name)))
  done;
  (* Extract the cover needed by the outputs. *)
  let b = N.Builder.create ~name table.library in
  let net_of_node = Array.make n (-1) in
  List.iter
    (fun (input_name, l) ->
      net_of_node.(Aig.node_of_lit l) <- N.Builder.add_pi b input_name)
    (Aig.inputs aig);
  let rec materialize v =
    if net_of_node.(v) >= 0 then net_of_node.(v)
    else
      match Aig.kind aig v with
      | Aig.Const0 ->
          let nid = N.Builder.const_net b false in
          net_of_node.(v) <- nid;
          nid
      | Aig.Input _ -> assert false
      | Aig.And _ ->
          let ch = match best.(v) with Some ch -> ch | None -> assert false in
          let leaf_nets = Array.map materialize ch.ch_cut.leaves in
          let inv_cache = Hashtbl.create 4 in
          let inverted_net nid =
            match Hashtbl.find_opt inv_cache nid with
            | Some n -> n
            | None -> (
                match table.inverter with
                | Some inv ->
                    let n =
                      N.Builder.add_gate b ~cell:inv.m_cell.Cell.name
                        (Array.map (fun _ -> nid) inv.m_pins)
                    in
                    Hashtbl.add inv_cache nid n;
                    n
                | None -> raise (Unmappable "negated match input without an inverter"))
          in
          let fanins =
            Array.map
              (fun (leaf_idx, neg) ->
                let nid = leaf_nets.(leaf_idx) in
                if neg then inverted_net nid else nid)
              ch.ch_match.m_pins
          in
          let out = N.Builder.add_gate b ~cell:ch.ch_match.m_cell.Cell.name fanins in
          let out =
            if ch.ch_match.m_inverted then begin
              match table.inverter with
              | Some inv ->
                  N.Builder.add_gate b ~cell:inv.m_cell.Cell.name
                    (Array.map (fun _ -> out) inv.m_pins)
              | None -> raise (Unmappable "complemented match without an inverter")
            end
            else out
          in
          net_of_node.(v) <- out;
          out
  in
  let invert_net nid =
    match table.inverter with
    | Some inv ->
        N.Builder.add_gate b ~cell:inv.m_cell.Cell.name (Array.map (fun _ -> nid) inv.m_pins)
    | None -> raise (Unmappable "output inversion without an inverter")
  in
  List.iter
    (fun (po_name, l) ->
      let v = Aig.node_of_lit l in
      let nid =
        if v = 0 then N.Builder.const_net b (Aig.is_complemented l)
        else begin
          let nid = materialize v in
          if Aig.is_complemented l then invert_net nid else nid
        end
      in
      N.Builder.mark_po b po_name nid)
    outputs;
  N.Builder.finish b

module N = Dfm_netlist.Netlist

type polarity = Sa0 | Sa1

type transition = Slow_to_rise | Slow_to_fall

type bridge_kind = Wired_and | Wired_or

type site_loc = On_net of int | On_pin of int * int

type kind =
  | Stuck of site_loc * polarity
  | Transition of site_loc * transition
  | Bridge of int * int * bridge_kind
  | Internal of int * int

type origin = {
  category : Dfm_cellmodel.Defect.category;
  guideline_index : int;
}

type t = { fault_id : int; kind : kind; origin : origin }

let is_internal f = match f.kind with Internal _ -> true | Stuck _ | Transition _ | Bridge _ -> false

let gates_of_net t n =
  let nn = N.net t n in
  let sinks = List.map fst nn.N.sinks in
  let d = match nn.N.driver with N.Gate_out g -> [ g ] | N.Pi _ | N.Const _ -> [] in
  d @ sinks

let gates_of_loc t = function
  | On_net n -> gates_of_net t n
  | On_pin (g, pin) -> (
      let net = (N.gate t g).N.fanins.(pin) in
      g :: (match (N.net t net).N.driver with N.Gate_out d -> [ d ] | N.Pi _ | N.Const _ -> []))

let corresponding_gates t f =
  let gs =
    match f.kind with
    | Internal (g, _) -> [ g ]
    | Stuck (loc, _) | Transition (loc, _) -> gates_of_loc t loc
    | Bridge (n1, n2, _) -> gates_of_net t n1 @ gates_of_net t n2
  in
  List.sort_uniq compare gs

let loc_to_string t = function
  | On_net n -> Printf.sprintf "net %s" (N.net t n).N.net_name
  | On_pin (g, pin) ->
      let gg = N.gate t g in
      Printf.sprintf "%s/%s" gg.N.gate_name gg.N.cell.Dfm_netlist.Cell.inputs.(pin)

let describe t f =
  let body =
    match f.kind with
    | Stuck (loc, p) ->
        Printf.sprintf "SA%d %s" (match p with Sa0 -> 0 | Sa1 -> 1) (loc_to_string t loc)
    | Transition (loc, tr) ->
        Printf.sprintf "%s %s"
          (match tr with Slow_to_rise -> "STR" | Slow_to_fall -> "STF")
          (loc_to_string t loc)
    | Bridge (n1, n2, k) ->
        Printf.sprintf "BR-%s %s~%s"
          (match k with Wired_and -> "AND" | Wired_or -> "OR")
          (N.net t n1).N.net_name (N.net t n2).N.net_name
    | Internal (g, e) ->
        let gg = N.gate t g in
        Printf.sprintf "UDFM %s(%s)#%d" gg.N.gate_name gg.N.cell.Dfm_netlist.Cell.name e
  in
  Printf.sprintf "[%d] %s (%s G%d)" f.fault_id body
    (Dfm_cellmodel.Defect.category_to_string f.origin.category)
    f.origin.guideline_index

let same_kind a b = a = b

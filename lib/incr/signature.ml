module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Tt = Dfm_logic.Truthtable
module Udfm = Dfm_cellmodel.Udfm
module H = Dfm_util.Hash64

type params = { semantics_version : int; max_conflicts : int option }

(* Bump whenever anything the hash abstracts over changes meaning: fault
   detection semantics, UDFM characterization, the encoder's miter shape, or
   this module's own hashing scheme. *)
let current_semantics_version = 1

let default_params ?max_conflicts () =
  { semantics_version = current_semantics_version; max_conflicts }

(* Role tags keep structurally different ingredients from colliding even
   when their raw values coincide. *)
let tag_source = H.of_string "incr:source"
let tag_const0 = H.of_string "incr:const0"
let tag_const1 = H.of_string "incr:const1"
let tag_gate = H.of_string "incr:gate"
let tag_cone = H.of_string "incr:cone"
let tag_fref = H.of_string "incr:cone-faulty-fanin"
let tag_fgood = H.of_string "incr:cone-good-fanin"
let tag_diff = H.of_string "incr:cone-diff"
let tag_params = H.of_string "incr:params"
let tag_no_budget = H.of_string "incr:unbounded"
let tag_ctrl = H.of_string "incr:ctrl"
let tag_stuck_net = H.of_string "incr:stuck-net"
let tag_stuck_pin = H.of_string "incr:stuck-pin"
let tag_trans = H.of_string "incr:transition"
let tag_bridge = H.of_string "incr:bridge"
let tag_internal = H.of_string "incr:internal"
let tag_internal_seq = H.of_string "incr:internal-seq"

(* Cells are hashed by function, not by name: drive-strength variants with
   equal truth tables produce identical verdicts. *)
let tt_hash (c : Cell.t) =
  H.mix (H.of_int (Tt.arity c.Cell.func)) (Tt.bits c.Cell.func)

type sweep = {
  nl : N.t;
  support : int64 array;  (* per net *)
  obs : bool array;       (* per net: PO or flip-flop D *)
  topo_pos : int array;   (* per gate; non-comb gates keep max_int *)
  cone_memo : (int list, int64) Hashtbl.t;  (* seed net ids -> cone hash *)
}

let netlist sw = sw.nl

let is_seq_gate nl g = (N.gate nl g).N.cell.Cell.is_seq

(* Forward pass.  Free sources (PIs, flip-flop Q nets) are labeled by net
   name so that equal-name sources of two netlists unify; a duplicate name
   gets an id-order occurrence index, which restores injectivity within one
   netlist (soundness) at the price of order-dependence for the duplicates
   (a cache-miss risk only). *)
let sweep nl =
  let nn = N.num_nets nl in
  let support = Array.make nn 0L in
  let name_occ = Hashtbl.create 64 in
  let source_label name =
    let occ = try Hashtbl.find name_occ name with Not_found -> 0 in
    Hashtbl.replace name_occ name (occ + 1);
    H.mix (H.mix tag_source (H.of_string name)) (H.of_int occ)
  in
  for n = 0 to nn - 1 do
    let net = N.net nl n in
    match net.N.driver with
    | N.Pi _ -> support.(n) <- source_label net.N.net_name
    | N.Const b -> support.(n) <- (if b then tag_const1 else tag_const0)
    | N.Gate_out g ->
        if is_seq_gate nl g then support.(n) <- source_label net.N.net_name
  done;
  let order = N.topo_order nl in
  Array.iter
    (fun gid ->
      let g = N.gate nl gid in
      support.(g.N.fanout) <-
        H.combine
          (H.mix tag_gate (tt_hash g.N.cell))
          (Array.to_list (Array.map (fun fn -> support.(fn)) g.N.fanins)))
    order;
  let topo_pos = Array.make (N.num_gates nl) max_int in
  Array.iteri (fun i gid -> topo_pos.(gid) <- i) order;
  let obs = Array.make nn false in
  List.iter (fun (_, n) -> obs.(n) <- true) (N.observe_nets nl);
  { nl; support; obs; topo_pos; cone_memo = Hashtbl.create 256 }

(* Canonical hash of the fault's combinational fanout region, mirroring
   [Encode.build_cone_and_observe]: cone nets are numbered in cone-topo
   order (seeds first), gates refer to faulty fanins by that number and to
   fault-free side inputs by their support hash, and every observable cone
   net contributes a clause-style unordered (index, support) pair.  The
   numbering makes physical sharing part of the hash: a reconvergent cone
   and duplicated logic get different signatures, as they must. *)
let cone_hash sw seeds =
  match Hashtbl.find_opt sw.cone_memo seeds with
  | Some h -> h
  | None ->
      let nl = sw.nl in
      let cone_idx = Hashtbl.create 32 in
      List.iteri (fun i n -> Hashtbl.replace cone_idx n i) seeds;
      (* Reachable comb gates through sink edges; a gate whose output is a
         seed net keeps the seed's (caller-constrained) faulty value and is
         not re-evaluated, exactly as in the encoder. *)
      let seen = Hashtbl.create 32 in
      let gates = ref [] in
      let rec visit_net n =
        List.iter
          (fun (g, _) ->
            if (not (Hashtbl.mem seen g)) && not (is_seq_gate nl g) then begin
              Hashtbl.replace seen g ();
              let out = (N.gate nl g).N.fanout in
              if not (Hashtbl.mem cone_idx out) then begin
                gates := g :: !gates;
                visit_net out
              end
            end)
          (N.net nl n).N.sinks
      in
      List.iter visit_net seeds;
      let order = List.sort (fun a b -> compare sw.topo_pos.(a) sw.topo_pos.(b)) !gates in
      let next = ref (List.length seeds) in
      let h = ref tag_cone in
      List.iter
        (fun gid ->
          let g = N.gate nl gid in
          Hashtbl.replace cone_idx g.N.fanout !next;
          incr next;
          h := H.mix !h (tt_hash g.N.cell);
          Array.iter
            (fun fn ->
              match Hashtbl.find_opt cone_idx fn with
              | Some i -> h := H.mix !h (H.mix tag_fref (H.of_int i))
              | None -> h := H.mix !h (H.mix tag_fgood sw.support.(fn)))
            g.N.fanins)
        order;
      let diffs = ref [] in
      Hashtbl.iter
        (fun n i ->
          if sw.obs.(n) then
            diffs := H.mix (H.mix tag_diff (H.of_int i)) sw.support.(n) :: !diffs)
        cone_idx;
      let h = H.mix !h (H.combine_unordered !diffs) in
      Hashtbl.replace sw.cone_memo seeds h;
      h

let forced = function F.Sa0 -> false | F.Sa1 -> true

let ctrl_sig sw n value = H.combine tag_ctrl [ H.of_bool value; sw.support.(n) ]

let stuck_sig sw loc pol =
  let nl = sw.nl in
  match loc with
  | F.On_pin (g, pin) when is_seq_gate nl g ->
      (* Scan capture: detection is controllability of D to the opposite
         value, so the signature is the controllability signature. *)
      ctrl_sig sw (N.gate nl g).N.fanins.(pin) (not (forced pol))
  | F.On_net n ->
      H.combine tag_stuck_net
        [ H.of_bool (forced pol); sw.support.(n); cone_hash sw [ n ] ]
  | F.On_pin (g, pin) ->
      let gg = N.gate nl g in
      H.combine tag_stuck_pin
        (H.of_bool (forced pol) :: H.of_int pin :: tt_hash gg.N.cell
         :: Array.to_list (Array.map (fun fn -> sw.support.(fn)) gg.N.fanins)
        @ [ cone_hash sw [ gg.N.fanout ] ])

let loc_net nl = function
  | F.On_net n -> n
  | F.On_pin (g, pin) -> (N.gate nl g).N.fanins.(pin)

let kind_sig sw (k : F.kind) =
  let nl = sw.nl in
  match k with
  | F.Stuck (loc, pol) -> stuck_sig sw loc pol
  | F.Transition (loc, tr) ->
      let init_value, pol =
        match tr with F.Slow_to_rise -> (false, F.Sa0) | F.Slow_to_fall -> (true, F.Sa1)
      in
      H.combine tag_trans [ ctrl_sig sw (loc_net nl loc) init_value; stuck_sig sw loc pol ]
  | F.Bridge (n1, n2, bk) ->
      H.combine tag_bridge
        [
          H.of_int (match bk with F.Wired_and -> 0 | F.Wired_or -> 1);
          sw.support.(n1);
          sw.support.(n2);
          cone_hash sw [ n1; n2 ];
        ]
  | F.Internal (g, entry_idx) ->
      let gg = N.gate nl g in
      let u = Udfm.for_cell gg.N.cell.Cell.name in
      let activation = (List.nth u.Udfm.entries entry_idx).Udfm.activation in
      if gg.N.cell.Cell.is_seq then
        (* Activation reads only bit 0 of each minterm (the D value); hash
           what is consumed, not the entry index. *)
        H.combine tag_internal_seq
          [ H.of_int_list (List.map (fun m -> m land 1) activation);
            sw.support.(gg.N.fanins.(0));
          ]
      else
        H.combine tag_internal
          (H.of_int_list activation :: sw.support.(gg.N.fanout)
           :: Array.to_list (Array.map (fun fn -> sw.support.(fn)) gg.N.fanins)
          @ [ cone_hash sw [ gg.N.fanout ] ])

let params_hash p =
  H.combine tag_params
    [
      H.of_int p.semantics_version;
      (match p.max_conflicts with None -> tag_no_budget | Some c -> H.of_int c);
    ]

let of_fault sw ~params (f : F.t) = H.mix (params_hash params) (kind_sig sw f.F.kind)

module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell

type report = {
  dynamic : float;
  leakage : float;
  total : float;
}

let vdd = 1.8
let freq_mhz = 100.0

let popcount w =
  let rec go w acc = if w = 0L then acc else go (Int64.logand w (Int64.sub w 1L)) (acc + 1) in
  go w 0

(* 64-pattern simulation blocks that estimate per-net toggle activity. *)
let blocks = 8

let analyze ?(seed = 5) (rt : Dfm_layout.Route.t) =
  let nl = rt.Dfm_layout.Route.place.Dfm_layout.Place.nl in
  let ls = Dfm_sim.Logic_sim.prepare nl in
  let rng = Dfm_util.Rng.create (seed + 31) in
  let load = Sta.net_load_of rt in
  let toggles = Array.make (N.num_nets nl) 0 in
  for _ = 1 to blocks do
    let values = Dfm_sim.Logic_sim.run ls (Dfm_sim.Logic_sim.random_words ls rng) in
    for nid = 0 to N.num_nets nl - 1 do
      let w = Dfm_sim.Logic_sim.value values nid in
      (* Adjacent bit positions act as consecutive cycles. *)
      toggles.(nid) <- toggles.(nid) + popcount (Int64.logxor w (Int64.shift_right_logical w 1))
    done
  done;
  let cycles = float_of_int (blocks * 63) in
  let dynamic =
    let acc = ref 0.0 in
    Array.iteri
      (fun nid t ->
        let activity = float_of_int t /. cycles in
        (* P = a * C * V^2 * f; pF * V^2 * MHz = uW, so /1000 for mW. *)
        acc := !acc +. (activity *. load.(nid) *. vdd *. vdd *. freq_mhz /. 1000.0))
      toggles;
    !acc
  in
  let leakage =
    Array.fold_left (fun acc (g : N.gate) -> acc +. g.N.cell.Cell.leakage) 0.0 nl.N.gates
    /. 1.0e6
    (* nW -> mW *)
  in
  { dynamic; leakage; total = dynamic +. leakage }

module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module Rng = Dfm_util.Rng

exception Does_not_fit of string

(* The pins of every net, fixed once per netlist and floorplan: gate pins
   move with the placement, pads do not, so a net's pads are kept as their
   bounding box. *)
type pins = {
  half_width : float array;  (* gate id -> half its cell width *)
  row_y : float array;  (* row -> y of the cell centres in it *)
  net_gates : int array array;  (* net id -> driver gate, then sink gates *)
  net_pads : int array array;  (* net id -> its PO pads, ascending *)
  n_fixed : int array;  (* net id -> driving PI pad (0 or 1) plus PO pads *)
  fixed_lx : float array;  (* net id -> bounding box of those fixed pins *)
  fixed_hx : float array;
  fixed_ly : float array;
  fixed_hy : float array;
}

type t = {
  fp : Floorplan.t;
  nl : N.t;
  row_of : int array;
  x_of : float array;
  pin_of_pi : Geom.point array;
  pin_of_po : Geom.point array;
  pins : pins;
}

let gate_width (nl : N.t) gid = nl.N.gates.(gid).N.cell.Cell.width

let edge_pins die n east =
  let h = Geom.rect_height die in
  Array.init n (fun i ->
      {
        Geom.x = (if east then die.Geom.hx else die.Geom.lx);
        Geom.y = die.Geom.ly +. (h *. (float_of_int i +. 1.0) /. (float_of_int n +. 1.0));
      })

let make_pins (nl : N.t) (fp : Floorplan.t) pin_of_pi pin_of_po =
  let nnets = N.num_nets nl in
  let pads = Array.make nnets [] in
  for k = Array.length nl.N.pos - 1 downto 0 do
    let nid = snd nl.N.pos.(k) in
    pads.(nid) <- k :: pads.(nid)
  done;
  let net_pads = Array.map Array.of_list pads in
  let net_gates = Array.make nnets [||] in
  let n_fixed = Array.make nnets 0 in
  let fixed_lx = Array.make nnets infinity and fixed_hx = Array.make nnets neg_infinity in
  let fixed_ly = Array.make nnets infinity and fixed_hy = Array.make nnets neg_infinity in
  let add_fixed nid (p : Geom.point) =
    n_fixed.(nid) <- n_fixed.(nid) + 1;
    fixed_lx.(nid) <- Float.min fixed_lx.(nid) p.Geom.x;
    fixed_hx.(nid) <- Float.max fixed_hx.(nid) p.Geom.x;
    fixed_ly.(nid) <- Float.min fixed_ly.(nid) p.Geom.y;
    fixed_hy.(nid) <- Float.max fixed_hy.(nid) p.Geom.y
  in
  Array.iter
    (fun (nn : N.net) ->
      let nid = nn.N.net_id in
      let sinks = List.map fst nn.N.sinks in
      net_gates.(nid) <-
        Array.of_list
          (match nn.N.driver with
          | N.Gate_out g -> g :: sinks
          | N.Pi k ->
              add_fixed nid pin_of_pi.(k);
              sinks
          | N.Const _ -> sinks);
      Array.iter (fun k -> add_fixed nid pin_of_po.(k)) net_pads.(nid))
    nl.N.nets;
  {
    half_width = Array.map (fun (g : N.gate) -> g.N.cell.Cell.width /. 2.0) nl.N.gates;
    row_y =
      Array.init fp.Floorplan.rows (fun r ->
          (float_of_int r +. 0.5) *. fp.Floorplan.row_height);
    net_gates;
    net_pads;
    n_fixed;
    fixed_lx;
    fixed_hx;
    fixed_ly;
    fixed_hy;
  }

let create nl fp =
  let ngates = N.num_gates nl in
  let pin_of_pi = edge_pins fp.Floorplan.die (Array.length nl.N.pis) false in
  let pin_of_po = edge_pins fp.Floorplan.die (Array.length nl.N.pos) true in
  {
    fp;
    nl;
    row_of = Array.make ngates 0;
    x_of = Array.make ngates 0.0;
    pin_of_pi;
    pin_of_po;
    pins = make_pins nl fp pin_of_pi pin_of_po;
  }

let gate_center t gid =
  { Geom.x = t.x_of.(gid) +. t.pins.half_width.(gid); y = t.pins.row_y.(t.row_of.(gid)) }

let net_pads t nid = t.pins.net_pads.(nid)

let net_pins t nid =
  let nn = t.nl.N.nets.(nid) in
  let driver =
    match nn.N.driver with
    | N.Gate_out g -> [ gate_center t g ]
    | N.Pi k -> [ t.pin_of_pi.(k) ]
    | N.Const _ -> []
  in
  let sinks = List.map (fun (g, _) -> gate_center t g) nn.N.sinks in
  let pads = Array.to_list (Array.map (fun k -> t.pin_of_po.(k)) (net_pads t nid)) in
  driver @ sinks @ pads

(* Half-perimeter wirelength of one net: (max x - min x) + (max y - min y)
   over its gate pins, at their [gate_center], and its fixed pads.  Min and
   max are exact, so the order of the pins is free; nets with fewer than
   two pins cost 0. *)
let net_hpwl t nid =
  let p = t.pins in
  let gates = p.net_gates.(nid) in
  if Array.length gates + p.n_fixed.(nid) < 2 then 0.0
  else begin
    let lx = ref p.fixed_lx.(nid) and hx = ref p.fixed_hx.(nid) in
    let ly = ref p.fixed_ly.(nid) and hy = ref p.fixed_hy.(nid) in
    for i = 0 to Array.length gates - 1 do
      let g = gates.(i) in
      let x = t.x_of.(g) +. p.half_width.(g) and y = p.row_y.(t.row_of.(g)) in
      if x < !lx then lx := x;
      if x > !hx then hx := x;
      if y < !ly then ly := y;
      if y > !hy then hy := y
    done;
    !hx -. !lx +. (!hy -. !ly)
  end

let total_hpwl t =
  let acc = ref 0.0 in
  Array.iter (fun (nn : N.net) -> acc := !acc +. net_hpwl t nn.N.net_id) t.nl.N.nets;
  !acc

(* Re-pack one row: cells keep their order, x = running sum plus an even
   share of the slack so the row spreads across the floorplan. *)
let repack t (rows : int array array) r =
  let members = rows.(r) in
  let n = Array.length members in
  let used = ref 0.0 in
  for i = 0 to n - 1 do
    used := !used +. gate_width t.nl members.(i)
  done;
  let slack = Float.max 0.0 (t.fp.Floorplan.row_capacity -. !used) in
  let gap = if n = 0 then 0.0 else slack /. float_of_int (n + 1) in
  let x = ref gap in
  for i = 0 to n - 1 do
    let g = members.(i) in
    t.x_of.(g) <- !x;
    x := !x +. gate_width t.nl g +. gap
  done

(* ECO placement: keep named gates where they were, slot new gates into the
   emptiest rows, re-pack. *)
let place_incremental (prev : t) nl fp =
  let ngates = N.num_gates nl in
  let t = create nl fp in
  let prev_pos = Hashtbl.create 256 in
  Array.iter
    (fun (g : N.gate) ->
      Hashtbl.replace prev_pos g.N.gate_name (prev.row_of.(g.N.gate_id), prev.x_of.(g.N.gate_id)))
    prev.nl.N.gates;
  let rows = Array.make fp.Floorplan.rows [] in  (* (sort key, gate) lists *)
  let used = Array.make fp.Floorplan.rows 0.0 in
  let newcomers = ref [] in
  let placed = Array.make ngates false in
  Array.iter
    (fun (g : N.gate) ->
      match Hashtbl.find_opt prev_pos g.N.gate_name with
      | Some (r, x) ->
          rows.(r) <- (x, g.N.gate_id) :: rows.(r);
          used.(r) <- used.(r) +. gate_width nl g.N.gate_id;
          t.row_of.(g.N.gate_id) <- r;
          t.x_of.(g.N.gate_id) <- x;
          placed.(g.N.gate_id) <- true
      | None -> newcomers := g.N.gate_id :: !newcomers)
    nl.N.gates;
  (* Place each new gate near the centroid of its already-placed neighbours
     (fanin drivers and fanout sinks), searching outward for a row with
     space, so resynthesized logic lands where the logic it replaced was. *)
  let neighbour_centroid gid =
    let g = nl.N.gates.(gid) in
    let pts = ref [] in
    Array.iter
      (fun fn ->
        match (N.net nl fn).N.driver with
        | N.Gate_out d when placed.(d) -> pts := (t.row_of.(d), t.x_of.(d)) :: !pts
        | N.Gate_out _ | N.Pi _ | N.Const _ -> ())
      g.N.fanins;
    List.iter
      (fun (sg, _) -> if placed.(sg) then pts := (t.row_of.(sg), t.x_of.(sg)) :: !pts)
      (N.net nl g.N.fanout).N.sinks;
    match !pts with
    | [] -> (fp.Floorplan.rows / 2, fp.Floorplan.row_capacity /. 2.0)
    | pts ->
        let n = float_of_int (List.length pts) in
        let ry = List.fold_left (fun a (r, _) -> a +. float_of_int r) 0.0 pts /. n in
        let rx = List.fold_left (fun a (_, x) -> a +. x) 0.0 pts /. n in
        (int_of_float (Float.round ry), rx)
  in
  List.iter
    (fun gid ->
      let w = gate_width nl gid in
      let want_row, want_x = neighbour_centroid gid in
      let best = ref (-1) in
      let delta = ref 0 in
      while !best < 0 && !delta < fp.Floorplan.rows do
        let try_r r =
          if r >= 0 && r < fp.Floorplan.rows && !best < 0
             && used.(r) +. w <= fp.Floorplan.row_capacity
          then best := r
        in
        try_r (want_row - !delta);
        try_r (want_row + !delta);
        incr delta
      done;
      if !best < 0 then raise (Does_not_fit "incremental placement: no row fits new gate");
      rows.(!best) <- (want_x, gid) :: rows.(!best);
      used.(!best) <- used.(!best) +. w;
      t.row_of.(gid) <- !best;
      t.x_of.(gid) <- want_x;
      placed.(gid) <- true)
    (List.sort compare !newcomers);
  let ordered_rows =
    Array.map
      (fun members -> Array.of_list (List.map snd (List.sort compare members)))
      rows
  in
  for r = 0 to fp.Floorplan.rows - 1 do
    repack t ordered_rows r
  done;
  t

(* Ascending union of two ascending duplicate-free net sets into [buf];
   returns its length. *)
let merge_nets (a : int array) (b : int array) (buf : int array) =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na || !j < nb do
    let v =
      if !j >= nb || (!i < na && a.(!i) < b.(!j)) then begin
        let v = a.(!i) in
        incr i;
        v
      end
      else if !i >= na || b.(!j) < a.(!i) then begin
        let v = b.(!j) in
        incr j;
        v
      end
      else begin
        let v = a.(!i) in
        incr i;
        incr j;
        v
      end
    in
    buf.(!k) <- v;
    incr k
  done;
  !k

let place ?(seed = 11) ?sa_moves ?previous nl fp =
  let ngates = N.num_gates nl in
  let cell_area = N.total_area nl in
  if not (Floorplan.fits fp ~cell_area) then
    raise
      (Does_not_fit
         (Printf.sprintf "cell area %.1f exceeds floorplan capacity %.1f" cell_area
            (Floorplan.capacity_area fp)));
  match previous with
  | Some prev ->
      ignore seed;
      ignore sa_moves;
      place_incremental prev nl fp
  | None ->
      let rng = Rng.create seed in
      let t = create nl fp in
      (* Initial placement: snake-fill rows in topological order so connected
         logic starts out close together.  Leave 8% headroom per row for the
         annealer to move cells across rows. *)
      let fill = Array.make fp.Floorplan.rows [] in
      let used = Array.make fp.Floorplan.rows 0.0 in
      let order =
        Array.to_list (N.topo_order nl)
        @ List.map (fun (g : N.gate) -> g.N.gate_id) (N.seq_gates nl)
      in
      let headroom = 0.92 in
      let r = ref 0 and dir = ref 1 in
      List.iter
        (fun gid ->
          let w = gate_width nl gid in
          let try_row () =
            if used.(!r) +. w <= (fp.Floorplan.row_capacity *. headroom) || used.(!r) = 0.0 then true
            else false
          in
          let attempts = ref 0 in
          while (not (try_row ())) && !attempts < fp.Floorplan.rows do
            incr attempts;
            let nr = !r + !dir in
            if nr < 0 || nr >= fp.Floorplan.rows then begin
              dir := - !dir;
              r := !r + !dir
            end
            else r := nr
          done;
          if used.(!r) +. w > fp.Floorplan.row_capacity && used.(!r) > 0.0 then begin
            (* fall back to the emptiest row *)
            let best = ref 0 in
            for i = 1 to fp.Floorplan.rows - 1 do
              if used.(i) < used.(!best) then best := i
            done;
            r := !best
          end;
          if used.(!r) +. w > fp.Floorplan.row_capacity then
            raise (Does_not_fit "row overflow during initial placement");
          fill.(!r) <- gid :: fill.(!r);
          used.(!r) <- used.(!r) +. w;
          t.row_of.(gid) <- !r)
        order;
      (* A swap exchanges two cells, so row lengths never change: rows are
         arrays and [slot] is each gate's index in its row. *)
      let rows = Array.map (fun members -> Array.of_list (List.rev members)) fill in
      let slot = Array.make ngates 0 in
      Array.iter (Array.iteri (fun i g -> slot.(g) <- i)) rows;
      for i = 0 to fp.Floorplan.rows - 1 do
        repack t rows i
      done;
      (* Simulated annealing on HPWL with pairwise swaps.  A move's cost is
         summed over the union of the two gates' nets in ascending net id
         order; that order fixes the float sums, and so every accept. *)
      let gate_nets =
        Array.map
          (fun (g : N.gate) ->
            Array.of_list (List.sort_uniq compare (g.N.fanout :: Array.to_list g.N.fanins)))
          nl.N.gates
      in
      let widest = Array.fold_left (fun m ns -> max m (Array.length ns)) 0 gate_nets in
      let nets = Array.make (2 * widest) 0 in
      let cost n =
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. net_hpwl t nets.(i)
        done;
        !acc
      in
      let moves = match sa_moves with Some m -> m | None -> 24 * ngates in
      if ngates >= 2 then begin
        let temperature = ref (0.15 *. Geom.rect_width fp.Floorplan.die) in
        let cooling = exp (log 0.02 /. float_of_int (max moves 1)) in
        for _ = 1 to moves do
          let g1 = Rng.int rng ngates and g2 = Rng.int rng ngates in
          if g1 <> g2 then begin
            let r1 = t.row_of.(g1) and r2 = t.row_of.(g2) in
            let w1 = gate_width nl g1 and w2 = gate_width nl g2 in
            let fits =
              r1 = r2
              || used.(r1) -. w1 +. w2 <= fp.Floorplan.row_capacity
                 && used.(r2) -. w2 +. w1 <= fp.Floorplan.row_capacity
            in
            if fits then begin
              let n = merge_nets gate_nets.(g1) gate_nets.(g2) nets in
              let before = cost n in
              (* Applied twice, the swap restores the rows.  [used] is
                 stepped forward and back, never recomputed: a fresh sum can
                 differ in the last bit and change a later [fits]. *)
              let swap () =
                let i1 = t.row_of.(g1) and i2 = t.row_of.(g2) in
                let s1 = slot.(g1) and s2 = slot.(g2) in
                rows.(i1).(s1) <- g2;
                rows.(i2).(s2) <- g1;
                slot.(g1) <- s2;
                slot.(g2) <- s1;
                t.row_of.(g1) <- i2;
                t.row_of.(g2) <- i1;
                used.(i1) <- used.(i1) -. w1 +. w2;
                used.(i2) <- used.(i2) -. w2 +. w1;
                repack t rows i1;
                if i2 <> i1 then repack t rows i2
              in
              swap ();
              let after = cost n in
              let delta = after -. before in
              let accept = delta <= 0.0 || Rng.float rng 1.0 < exp (-.delta /. !temperature) in
              if not accept then swap ()
            end
          end;
          temperature := !temperature *. cooling
        done
      end;
      t

let check_legal t =
  let fp = t.fp in
  let per_row = Array.make fp.Floorplan.rows [] in
  Array.iteri
    (fun gid r ->
      if r < 0 || r >= fp.Floorplan.rows then failwith "Place.check_legal: bad row";
      per_row.(r) <- gid :: per_row.(r))
    t.row_of;
  Array.iter
    (fun members ->
      let sorted = List.sort (fun a b -> compare t.x_of.(a) t.x_of.(b)) members in
      let rec walk = function
        | [] | [ _ ] -> ()
        | a :: (b :: _ as rest) ->
            if t.x_of.(a) +. gate_width t.nl a > t.x_of.(b) +. 1e-6 then
              failwith "Place.check_legal: overlap";
            walk rest
      in
      walk sorted;
      List.iter
        (fun g ->
          if t.x_of.(g) < -1e-6 || t.x_of.(g) +. gate_width t.nl g > fp.Floorplan.row_capacity +. 1e-6
          then failwith "Place.check_legal: outside row")
        members)
    per_row

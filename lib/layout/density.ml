type window = {
  win : Geom.rect;
  density : (Geom.layer * float) list;
}

type t = { windows : window array; window_size : float; nx : int; ny : int }

let low_threshold = 0.02
let high_threshold = 0.25

let analyze (rt : Route.t) =
  let die = rt.Route.place.Place.fp.Floorplan.die in
  let w = Geom.rect_width die and h = Geom.rect_height die in
  let ws = Float.min 12.0 (Float.min (w /. 2.0) (h /. 2.0)) in
  let nx = max 2 (int_of_float (ceil (w /. ws))) in
  let ny = max 2 (int_of_float (ceil (h /. ws))) in
  let area = Array.init 3 (fun _ -> Array.make_matrix nx ny 0.0) in
  let layer_idx = function Geom.M1 -> 0 | Geom.M2 -> 1 | Geom.M3 -> 2 in
  (* Spread each segment's metal area over the windows it crosses. *)
  Array.iter
    (fun (s : Geom.segment) ->
      let len = Geom.segment_length s in
      if len > 1e-9 then begin
        let steps = max 1 (int_of_float (ceil (len /. (ws /. 2.0)))) in
        let metal_per_step = len *. s.Geom.seg_width /. float_of_int steps in
        for k = 0 to steps - 1 do
          let f = (float_of_int k +. 0.5) /. float_of_int steps in
          let px = s.Geom.seg_a.Geom.x +. (f *. (s.Geom.seg_b.Geom.x -. s.Geom.seg_a.Geom.x)) in
          let py = s.Geom.seg_a.Geom.y +. (f *. (s.Geom.seg_b.Geom.y -. s.Geom.seg_a.Geom.y)) in
          let ix = min (nx - 1) (max 0 (int_of_float (px /. w *. float_of_int nx))) in
          let iy = min (ny - 1) (max 0 (int_of_float (py /. h *. float_of_int ny))) in
          area.(layer_idx s.Geom.seg_layer).(ix).(iy) <-
            area.(layer_idx s.Geom.seg_layer).(ix).(iy) +. metal_per_step
        done
      end)
    rt.Route.segments;
  let wx = w /. float_of_int nx and wy = h /. float_of_int ny in
  let windows = ref [] in
  for ix = nx - 1 downto 0 do
    for iy = ny - 1 downto 0 do
      let win =
        {
          Geom.lx = float_of_int ix *. wx;
          ly = float_of_int iy *. wy;
          hx = float_of_int (ix + 1) *. wx;
          hy = float_of_int (iy + 1) *. wy;
        }
      in
      let wa = Geom.rect_area win in
      let density =
        (* Overlapping trunks deposit metal on the same tracks; physically
           the fill fraction saturates at full coverage. *)
        List.map
          (fun l -> (l, Float.min 1.0 (area.(layer_idx l).(ix).(iy) /. wa)))
          [ Geom.M1; Geom.M2; Geom.M3 ]
      in
      windows := { win; density } :: !windows
    done
  done;
  { windows = Array.of_list !windows; window_size = ws; nx; ny }

(* One pass over the segments: each segment's bounding box goes into the
   grid windows it overlaps.  The candidate range is widened by one window
   on each side against rounding, and the exact [Geom.overlap] test with
   the window's own rectangle decides. *)
let window_nets d (rt : Route.t) =
  let die = rt.Route.place.Place.fp.Floorplan.die in
  let wx = Geom.rect_width die /. float_of_int d.nx
  and wy = Geom.rect_height die /. float_of_int d.ny in
  let index v size = int_of_float (Float.floor (v /. size)) in
  let bins = Array.make (d.nx * d.ny) [] in
  Array.iter
    (fun (s : Geom.segment) ->
      let b = Route.seg_bbox s in
      let net = s.Geom.seg_net in
      for ix = max 0 (index b.Geom.lx wx - 1) to min (d.nx - 1) (index b.Geom.hx wx + 1) do
        for iy = max 0 (index b.Geom.ly wy - 1) to min (d.ny - 1) (index b.Geom.hy wy + 1) do
          let i = (ix * d.ny) + iy in
          if Geom.overlap b d.windows.(i).win then
            match bins.(i) with
            | n :: _ when n = net -> ()
            | l -> bins.(i) <- net :: l
        done
      done)
    rt.Route.segments;
  Array.map (List.sort_uniq compare) bins

type point = { x : float; y : float }

type rect = { lx : float; ly : float; hx : float; hy : float }

let rect_width r = r.hx -. r.lx
let rect_height r = r.hy -. r.ly
let rect_area r = rect_width r *. rect_height r
let contains r p = p.x >= r.lx && p.x <= r.hx && p.y >= r.ly && p.y <= r.hy

let overlap a b = a.lx < b.hx && b.lx < a.hx && a.ly < b.hy && b.ly < a.hy

type layer = M1 | M2 | M3

type segment = {
  seg_net : int;
  seg_layer : layer;
  seg_a : point;
  seg_b : point;
  seg_width : float;
}

let segment_length s = Float.abs (s.seg_b.x -. s.seg_a.x) +. Float.abs (s.seg_b.y -. s.seg_a.y)

type via = {
  via_net : int;
  via_at : point;
  via_lower : layer;
  via_redundant : bool;
  via_sink : (int * int) option;
}

let dist a b = Float.hypot (a.x -. b.x) (a.y -. b.y)

let ordered a b = if a <= b then (a, b) else (b, a)

let segments_parallel_gap s1 s2 =
  if s1.seg_layer <> s2.seg_layer then None
  else begin
    let h1 = s1.seg_a.y = s1.seg_b.y and h2 = s2.seg_a.y = s2.seg_b.y in
    if h1 && h2 then begin
      (* Horizontal pair: spans must overlap in x. *)
      let a1, b1 = ordered s1.seg_a.x s1.seg_b.x and a2, b2 = ordered s2.seg_a.x s2.seg_b.x in
      if Float.min b1 b2 > Float.max a1 a2 then
        Some (Float.abs (s1.seg_a.y -. s2.seg_a.y) -. ((s1.seg_width +. s2.seg_width) /. 2.0))
      else None
    end
    else if (not h1) && not h2 then begin
      let a1, b1 = ordered s1.seg_a.y s1.seg_b.y and a2, b2 = ordered s2.seg_a.y s2.seg_b.y in
      if Float.min b1 b2 > Float.max a1 a2 then
        Some (Float.abs (s1.seg_a.x -. s2.seg_a.x) -. ((s1.seg_width +. s2.seg_width) /. 2.0))
      else None
    end
    else None
  end

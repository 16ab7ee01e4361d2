module N = Dfm_netlist.Netlist
module Rng = Dfm_util.Rng

type t = {
  place : Place.t;
  segments : Geom.segment array;
  vias : Geom.via array;
  net_length : float array;
}

let recommended_width = 0.28

(* Routing tracks: coordinates snap to a 0.5 um pitch, as a track-based
   router would.  Adjacent tracks then sit 0.5 um apart center-to-center —
   below the recommended (width + spacing) pitch, so parallel runs on
   neighbouring tracks are exactly the tight-spacing contexts the Metal
   guidelines flag. *)
let track_pitch = 0.5

let snap x = Float.round (x /. track_pitch) *. track_pitch

(* Routing decisions (width squeezes, via doubling) are keyed by stable
   names — net and sink names — rather than drawn from a sequential stream,
   so an unchanged net keeps its exact geometry decisions when unrelated
   parts of the netlist are resynthesized. *)
let det key salt p = Rng.float (Rng.of_name (key ^ "#" ^ string_of_int salt)) 1.0 < p

let route ?(seed = 23) (pl : Place.t) =
  let nl = pl.Place.nl in
  ignore seed;
  let segments = ref [] and vias = ref [] in
  let net_length = Array.make (N.num_nets nl) 0.0 in
  let emit_segment net layer (a : Geom.point) (b : Geom.point) width =
    if Geom.dist a b > 1e-9 then begin
      let s = { Geom.seg_net = net; seg_layer = layer; seg_a = a; seg_b = b; seg_width = width } in
      segments := s :: !segments;
      net_length.(net) <- net_length.(net) +. Geom.segment_length s
    end
  in
  let emit_via ?sink net at lower redundant =
    vias :=
      { Geom.via_net = net; via_at = at; via_lower = lower; via_redundant = redundant;
        via_sink = sink }
      :: !vias
  in
  Array.iter
    (fun (nn : N.net) ->
      let nid = nn.N.net_id in
      let driver =
        match nn.N.driver with
        | N.Gate_out g -> Some (Place.gate_center pl g)
        | N.Pi k -> Some pl.Place.pin_of_pi.(k)
        | N.Const _ -> None
      in
      match driver with
      | None -> ()
      | Some d ->
          let net_name = nn.N.net_name in
          let sinks =
            List.map
              (fun (g, pin) ->
                let key =
                  Printf.sprintf "%s>%s.%d" net_name nl.N.gates.(g).N.gate_name pin
                in
                (Place.gate_center pl g, Some (g, pin), key))
              nn.N.sinks
            @ List.mapi
                (fun k po -> (pl.Place.pin_of_po.(po), None, Printf.sprintf "%s>pad%d" net_name k))
                (Array.to_list (Place.net_pads pl nid))
          in
          if sinks <> [] then begin
            let fanout = List.length sinks in
            (* Wider trunks for high fanout; squeezed widths and single vias
               in a fraction of spots, as real routers do under congestion. *)
            let base_width =
              if fanout > 4 then recommended_width +. 0.14
              else if det net_name 1 0.26 then 0.24
              else if det net_name 2 0.14 then 0.22
              else recommended_width
            in
            emit_via nid d Geom.M1 (det net_name 3 0.5);
            let d = { Geom.x = snap d.Geom.x; y = d.Geom.y } in
            List.iter
              (fun ((s : Geom.point), sink, key) ->
                let s = { Geom.x = s.Geom.x; y = snap s.Geom.y } in
                let bend = { Geom.x = d.Geom.x; y = s.Geom.y } in
                let w =
                  if det key 4 0.22 then Float.max 0.22 (base_width -. 0.06) else base_width
                in
                emit_segment nid Geom.M2 d bend w;
                emit_segment nid Geom.M3 bend s w;
                if Geom.dist d bend > 1e-9 && Geom.dist bend s > 1e-9 then
                  emit_via ?sink nid bend Geom.M2 (det key 5 0.5);
                emit_via ?sink nid s Geom.M1 (det key 6 0.5))
              sinks
          end)
    nl.N.nets;
  {
    place = pl;
    segments = Array.of_list (List.rev !segments);
    vias = Array.of_list (List.rev !vias);
    net_length;
  }

let total_wirelength t = Array.fold_left ( +. ) 0.0 t.net_length

let seg_bbox (s : Geom.segment) =
  let lx = Float.min s.Geom.seg_a.Geom.x s.Geom.seg_b.Geom.x
  and hx = Float.max s.Geom.seg_a.Geom.x s.Geom.seg_b.Geom.x
  and ly = Float.min s.Geom.seg_a.Geom.y s.Geom.seg_b.Geom.y
  and hy = Float.max s.Geom.seg_a.Geom.y s.Geom.seg_b.Geom.y in
  { Geom.lx; ly = ly -. (s.Geom.seg_width /. 2.0); hx; hy = hy +. (s.Geom.seg_width /. 2.0) }

module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Geom = Dfm_layout.Geom
module Defect = Dfm_cellmodel.Defect
module Udfm = Dfm_cellmodel.Udfm

type violation = {
  guideline : Guideline.t;
  at : Geom.point;
  nets : int list;
  fault_ids : int list;
}

type t = {
  faults : F.t array;
  violations : violation list;
  n_internal : int;
  n_external : int;
}

(* External-fault accumulator with structural deduplication: the same
   stuck-at site can be implicated by several violations; it is one fault
   in F (both get to reference it).  Internal faults need none: each
   (gate, UDFM entry) pair is one fault. *)
type acc = {
  mutable rev_faults : F.t list;
  mutable count : int;
  dedup : (F.kind, int) Hashtbl.t;
}

let add_fault acc kind origin =
  match Hashtbl.find_opt acc.dedup kind with
  | Some id -> id
  | None ->
      let id = acc.count in
      acc.count <- id + 1;
      Hashtbl.add acc.dedup kind id;
      acc.rev_faults <- { F.fault_id = id; kind; origin } :: acc.rev_faults;
      id

(* Reachability for feedback-bridge exclusion: is [b] in the combinational
   transitive fanout of [a]?  (Bridging a net with its own cone would create
   an oscillating loop the fault models cannot represent.) *)
let reaches nl =
  let memo = Hashtbl.create 64 in
  fun a b ->
    match Hashtbl.find_opt memo (a, b) with
    | Some r -> r
    | None ->
        let seen = Hashtbl.create 32 in
        let rec go n =
          if n = b then true
          else if Hashtbl.mem seen n then false
          else begin
            Hashtbl.add seen n ();
            List.exists
              (fun (g, _) ->
                let gg = N.gate nl g in
                (not gg.N.cell.Cell.is_seq) && go gg.N.fanout)
              (N.net nl n).N.sinks
          end
        in
        let r = go a in
        Hashtbl.add memo (a, b) r;
        r

let internal_only nl =
  let rev_faults = ref [] and count = ref 0 in
  Array.iter
    (fun (g : N.gate) ->
      let u = Udfm.for_cell g.N.cell.Cell.name in
      List.iteri
        (fun entry_idx (e : Udfm.entry) ->
          let site = e.Udfm.site in
          let origin =
            { F.category = site.Defect.category; guideline_index = site.Defect.guideline_index }
          in
          let kind = F.Internal (g.N.gate_id, entry_idx) in
          rev_faults := { F.fault_id = !count; kind; origin } :: !rev_faults;
          incr count)
        u.Udfm.entries)
    nl.N.gates;
  Array.of_list (List.rev !rev_faults)

let build (rt : Dfm_layout.Route.t) =
  let nl = rt.Dfm_layout.Route.place.Dfm_layout.Place.nl in
  let internal = internal_only nl in
  let n_internal = Array.length internal in
  (* External fault ids continue after the internal ones. *)
  let acc = { rev_faults = []; count = n_internal; dedup = Hashtbl.create 4096 } in
  let violations = ref [] in
  let note guideline at nets fault_ids =
    violations := { guideline; at; nets; fault_ids } :: !violations
  in
  (* ---------------- external: via guidelines ---------------- *)
  let stuck_and_transition loc origin =
    [
      add_fault acc (F.Stuck (loc, F.Sa0)) origin;
      add_fault acc (F.Stuck (loc, F.Sa1)) origin;
      add_fault acc (F.Transition (loc, F.Slow_to_rise)) origin;
      add_fault acc (F.Transition (loc, F.Slow_to_fall)) origin;
    ]
  in
  Array.iter
    (fun (v : Geom.via) ->
      if not v.Geom.via_redundant then begin
        let nid = v.Geom.via_net in
        let net_len = rt.Dfm_layout.Route.net_length.(nid) in
        let fanout = List.length (N.net nl nid).N.sinks in
        if net_len > Guideline.single_via_max_length || fanout >= 2 then begin
          let index = Guideline.via_index ~layer:v.Geom.via_lower ~net_length:net_len ~fanout in
          let g = Guideline.find Defect.Via index in
          let origin = { F.category = Defect.Via; guideline_index = index } in
          let ids =
            match v.Geom.via_sink with
            | Some (gate, pin) -> stuck_and_transition (F.On_pin (gate, pin)) origin
            | None ->
                (* A break at the trunk side isolates sink subsets: the
                   whole-net faults plus a per-sink-pin fault set (the
                   structural dedup merges repeats from sink-side vias). *)
                stuck_and_transition (F.On_net nid) origin
                @ List.concat_map
                    (fun (gate, pin) -> stuck_and_transition (F.On_pin (gate, pin)) origin)
                    (N.net nl nid).N.sinks
          in
          note g v.Geom.via_at [ nid ] ids
        end
      end)
    rt.Dfm_layout.Route.vias;
  (* ---------------- external: metal width guidelines ---------------- *)
  Array.iter
    (fun (s : Geom.segment) ->
      if s.Geom.seg_width < Guideline.recommended_wire_width -. 1e-9 then begin
        let len = Geom.segment_length s in
        if len > 1.0 then begin
          let index =
            Guideline.metal_width_index ~layer:s.Geom.seg_layer ~width:s.Geom.seg_width
              ~length:len
          in
          let g = Guideline.find Defect.Metal index in
          let origin = { F.category = Defect.Metal; guideline_index = index } in
          let loc = F.On_net s.Geom.seg_net in
          (* Resistive opens show up as slow transitions; a severe squeeze
             also risks a full open. *)
          let ids =
            [
              add_fault acc (F.Transition (loc, F.Slow_to_rise)) origin;
              add_fault acc (F.Transition (loc, F.Slow_to_fall)) origin;
            ]
            @
            if s.Geom.seg_width <= 0.221 then
              [
                add_fault acc (F.Stuck (loc, F.Sa0)) origin;
                add_fault acc (F.Stuck (loc, F.Sa1)) origin;
              ]
            else []
          in
          note g s.Geom.seg_a [ s.Geom.seg_net ] ids
        end
      end)
    rt.Dfm_layout.Route.segments;
  (* ---------------- external: metal spacing (bridges) ---------------- *)
  let reach = reaches nl in
  let bridge_candidates = ref [] in
  (* Bucket segments by layer and coarse position to find close parallel
     pairs without the quadratic blowup. *)
  let buckets = Hashtbl.create 1024 in
  let bucket_of (s : Geom.segment) =
    let coord =
      match s.Geom.seg_layer with
      | Geom.M2 -> s.Geom.seg_a.Geom.x  (* vertical *)
      | Geom.M3 | Geom.M1 -> s.Geom.seg_a.Geom.y
    in
    (s.Geom.seg_layer, int_of_float (coord /. 2.0))
  in
  Array.iter
    (fun s ->
      let key = bucket_of s in
      Hashtbl.replace buckets key (s :: (try Hashtbl.find buckets key with Not_found -> [])))
    rt.Dfm_layout.Route.segments;
  Array.iter
    (fun (s1 : Geom.segment) ->
      let layer, b = bucket_of s1 in
      List.iter
        (fun db ->
          List.iter
            (fun (s2 : Geom.segment) ->
              if s1.Geom.seg_net < s2.Geom.seg_net then
                match Geom.segments_parallel_gap s1 s2 with
                | Some gap when gap > 0.01 && gap < Guideline.recommended_spacing ->
                    bridge_candidates := (s1, s2, gap) :: !bridge_candidates
                | Some _ | None -> ())
            (try Hashtbl.find buckets (layer, b + db) with Not_found -> []))
        [ 0; 1 ])
    rt.Dfm_layout.Route.segments;
  List.iter
    (fun ((s1 : Geom.segment), (s2 : Geom.segment), gap) ->
      let n1 = s1.Geom.seg_net and n2 = s2.Geom.seg_net in
      if not (reach n1 n2 || reach n2 n1) then begin
        let index = Guideline.metal_spacing_index ~layer:s1.Geom.seg_layer ~gap in
        let g = Guideline.find Defect.Metal index in
        let origin = { F.category = Defect.Metal; guideline_index = index } in
        let ids =
          [
            add_fault acc (F.Bridge (n1, n2, F.Wired_and)) origin;
            add_fault acc (F.Bridge (n1, n2, F.Wired_or)) origin;
          ]
        in
        note g s1.Geom.seg_a [ n1; n2 ] ids
      end)
    !bridge_candidates;
  (* ---------------- external: density guidelines ---------------- *)
  let dens = Dfm_layout.Density.analyze rt in
  let window_nets = Dfm_layout.Density.window_nets dens rt in
  Array.iteri
    (fun wi (w : Dfm_layout.Density.window) ->
      List.iter
        (fun (layer, d) ->
          let low = d < Dfm_layout.Density.low_threshold in
          let high = d > Dfm_layout.Density.high_threshold in
          if low || high then begin
            let nets = window_nets.(wi) in
            if nets <> [] then begin
              let index = Guideline.density_index ~layer ~low ~density:d in
              let g = Guideline.find Defect.Density index in
              let origin = { F.category = Defect.Density; guideline_index = index } in
              let center =
                {
                  Geom.x = (w.Dfm_layout.Density.win.Geom.lx +. w.Dfm_layout.Density.win.Geom.hx) /. 2.0;
                  y = (w.Dfm_layout.Density.win.Geom.ly +. w.Dfm_layout.Density.win.Geom.hy) /. 2.0;
                }
              in
              if low then begin
                (* Dishing: open risk on the (few) nets crossing the
                   window. *)
                let ids =
                  List.concat_map
                    (fun nid ->
                      [
                        add_fault acc (F.Transition (F.On_net nid, F.Slow_to_rise)) origin;
                        add_fault acc (F.Transition (F.On_net nid, F.Slow_to_fall)) origin;
                      ])
                    (List.filteri (fun i _ -> i < 4) nets)
                in
                note g center nets ids
              end
              else begin
                (* Overfill: short risk between neighbouring nets. *)
                let rec pairs = function
                  | a :: b :: rest ->
                      ((a, b) :: pairs (b :: rest))
                  | _ -> []
                in
                let ids =
                  List.concat_map
                    (fun (a, b) ->
                      if a <> b && not (reach a b || reach b a) then
                        [ add_fault acc (F.Bridge (a, b, F.Wired_and)) origin ]
                      else [])
                    (List.filteri (fun i _ -> i < 3) (pairs nets))
                in
                if ids <> [] then note g center nets ids
              end
            end
          end)
        w.Dfm_layout.Density.density)
    dens.Dfm_layout.Density.windows;
  let faults = Array.append internal (Array.of_list (List.rev acc.rev_faults)) in
  {
    faults;
    violations = List.rev !violations;
    n_internal;
    n_external = acc.count - n_internal;
  }

module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module Tt = Dfm_logic.Truthtable
module Span = Dfm_obs.Span

(* Shannon decomposition on the first support variable. *)
let rec shannon_lit aig tt (lits : Aig.lit array) =
  let arity = Tt.arity tt in
  let rec first_dep k =
    if k >= arity then None else if Tt.depends_on tt k then Some k else first_dep (k + 1)
  in
  match first_dep 0 with
  | None -> if Tt.eval_index tt 0 then Aig.lit_true else Aig.lit_false
  | Some k ->
      let f0 = shannon_lit aig (Tt.cofactor tt k false) lits in
      let f1 = shannon_lit aig (Tt.cofactor tt k true) lits in
      Aig.mux aig ~sel:lits.(k) f0 f1

(* Prime implicants by pairwise cube merging (Quine-McCluskey without the
   covering table), then a greedy cover. *)
let sop_cover tt =
  let _n = Tt.arity tt in
  let minterms = Tt.minterms tt in
  if minterms = [] then []
  else begin
    let primes = ref [] in
    (* a cube is (bits, mask): positions in [mask] are don't-care *)
    let current = ref (List.map (fun m -> (m, 0)) minterms) in
    while !current <> [] do
      let combined = Hashtbl.create 32 in
      let next = Hashtbl.create 32 in
      List.iter
        (fun (b1, m1) ->
          List.iter
            (fun (b2, m2) ->
              if m1 = m2 && b1 < b2 then begin
                let diff = b1 lxor b2 in
                if diff land (diff - 1) = 0 then begin
                  Hashtbl.replace combined (b1, m1) ();
                  Hashtbl.replace combined (b2, m2) ();
                  Hashtbl.replace next (b1 land lnot diff, m1 lor diff) ()
                end
              end)
            !current)
        !current;
      List.iter
        (fun c -> if not (Hashtbl.mem combined c) then primes := c :: !primes)
        !current;
      current := Hashtbl.fold (fun c () acc -> c :: acc) next []
    done;
    (* Greedy cover of the minterms. *)
    let covers (bits, mask) m = m land lnot mask = bits land lnot mask in
    let uncovered = ref minterms in
    let chosen = ref [] in
    while !uncovered <> [] do
      let best =
        List.fold_left
          (fun acc p ->
            let gain = List.length (List.filter (covers p) !uncovered) in
            match acc with
            | Some (_, g) when g >= gain -> acc
            | _ when gain = 0 -> acc
            | _ -> Some (p, gain))
          None !primes
      in
      match best with
      | None -> uncovered := []  (* cannot happen: primes cover everything *)
      | Some (p, _) ->
          chosen := p :: !chosen;
          uncovered := List.filter (fun m -> not (covers p m)) !uncovered
    done;
    !chosen
  end

let sop_lit aig tt (lits : Aig.lit array) =
  let n = Tt.arity tt in
  let cube_lit (bits, mask) =
    let factors =
      List.filter_map
        (fun k ->
          if (mask lsr k) land 1 = 1 then None
          else if (bits lsr k) land 1 = 1 then Some lits.(k)
          else Some (Aig.not_ lits.(k)))
        (List.init n (fun i -> i))
    in
    Aig.and_list aig factors
  in
  Aig.or_list aig (List.map cube_lit (sop_cover tt))

type cover = Shannon | Sop | Sop_complement

let build_cover cover aig tt (lits : Aig.lit array) =
  match cover with
  | Shannon -> shannon_lit aig tt lits
  | Sop -> sop_lit aig tt lits
  | Sop_complement -> Aig.not_ (sop_lit aig (Tt.lnot tt) lits)

(* The most compact construction of [tt]: Shannon, SOP, or complemented
   SOP, ties going to the earlier one.  Each variant is sized in a
   throwaway AIG so losers leave no residue in the real graph; the size
   depends on [tt] alone. *)
let best_cover tt =
  let size_of cover =
    let probe = Aig.create () in
    let lits = Array.init (Tt.arity tt) (fun i -> Aig.input probe (string_of_int i)) in
    ignore (build_cover cover probe tt lits);
    Aig.num_nodes probe
  in
  fst
    (List.fold_left
       (fun (best, bs) cover ->
         let s = size_of cover in
         if s < bs then (cover, s) else (best, bs))
       (Shannon, max_int) [ Shannon; Sop; Sop_complement ])

let to_aig nl =
  if N.seq_gates nl <> [] then invalid_arg "Convert.to_aig: sequential netlist";
  let aig = Aig.create () in
  let lit_of_net = Array.make (N.num_nets nl) Aig.lit_false in
  Array.iter (fun (p, nid) -> lit_of_net.(nid) <- Aig.input aig p) nl.N.pis;
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const v -> lit_of_net.(nn.N.net_id) <- (if v then Aig.lit_true else Aig.lit_false)
      | N.Pi _ | N.Gate_out _ -> ())
    nl.N.nets;
  (* One cover choice per cell, not per gate. *)
  let covers = Hashtbl.create 32 in
  Array.iter
    (fun gid ->
      let g = N.gate nl gid in
      let cell = g.N.cell in
      let cover =
        match Hashtbl.find_opt covers cell.Cell.name with
        | Some c -> c
        | None ->
            let c = best_cover cell.Cell.func in
            Hashtbl.add covers cell.Cell.name c;
            c
      in
      let lits = Array.map (fun fn -> lit_of_net.(fn)) g.N.fanins in
      lit_of_net.(g.N.fanout) <- build_cover cover aig cell.Cell.func lits)
    (N.topo_order nl);
  let outputs = Array.to_list (Array.map (fun (p, nid) -> (p, lit_of_net.(nid))) nl.N.pos) in
  (aig, outputs)

(* One span per Synthesize() step, so a trace splits the remap. *)
let remap ?goal ?(sweep = true) nl ~table =
  let aig, outputs = Span.with_ "synth.to_aig" (fun () -> to_aig nl) in
  let aig, outputs =
    if sweep then Span.with_ "synth.sweep" (fun () -> Sweep.sweep aig ~outputs)
    else (aig, outputs)
  in
  Span.with_ "synth.map" (fun () -> Mapper.map ?goal table ~name:nl.N.name aig ~outputs)

let remap_region ?goal ?sweep nl ~gates ~table =
  let sub, boundary = Span.with_ "synth.extract" (fun () -> N.extract nl ~gates) in
  let mapped = remap ?goal ?sweep sub ~table in
  Span.with_ "synth.replace" (fun () -> N.replace nl ~gates ~sub:mapped boundary)

let remap_full nl ~table =
  let gates = List.map (fun (g : N.gate) -> g.N.gate_id) (N.comb_gates nl) in
  remap_region nl ~gates ~table

module Solver = Dfm_sat.Solver

let sim_words = 8  (* 8 * 64 = 512 random patterns *)

let sweep aig ~outputs =
  let n = Aig.num_nodes aig in
  let rng = Dfm_util.Rng.create 91 in
  (* Random-simulation signatures over the old graph. *)
  let sig_ = Array.make n (Array.make 0 0L) in
  sig_.(0) <- Array.make sim_words 0L;
  for v = 1 to n - 1 do
    match Aig.kind aig v with
    | Aig.Const0 -> sig_.(v) <- Array.make sim_words 0L
    | Aig.Input _ -> sig_.(v) <- Array.init sim_words (fun _ -> Dfm_util.Rng.bits64 rng)
    | Aig.And (a, b) ->
        let word l k =
          let w = sig_.(Aig.node_of_lit l).(k) in
          if Aig.is_complemented l then Int64.lognot w else w
        in
        sig_.(v) <- Array.init sim_words (fun k -> Int64.logand (word a k) (word b k))
  done;
  (* Lazy CNF of the old graph for equivalence proofs. *)
  let solver = Solver.create () in
  let var_of = Array.make n 0 in
  let rec cnf_node v =
    if var_of.(v) <> 0 then var_of.(v)
    else begin
      let x = Solver.new_var solver in
      var_of.(v) <- x;
      (match Aig.kind aig v with
      | Aig.Const0 -> Solver.add_clause solver [ -x ]
      | Aig.Input _ -> ()
      | Aig.And (a, b) ->
          let la = cnf_lit a and lb = cnf_lit b in
          Solver.add_clause solver [ -x; la ];
          Solver.add_clause solver [ -x; lb ];
          Solver.add_clause solver [ x; -la; -lb ]);
      x
    end
  and cnf_lit l =
    let x = cnf_node (Aig.node_of_lit l) in
    if Aig.is_complemented l then -x else x
  in
  (* Prove [v] equivalent to literal [cand] (over node [u] or constant). *)
  let proves_equal v cand_lit =
    (* UNSAT of (v xor cand) means equivalence. *)
    let xv = cnf_node v in
    let xc =
      match cand_lit with
      | `Const false -> None
      | `Const true -> Some `True
      | `Lit l -> Some (`Var (cnf_lit l))
    in
    let result =
      match xc with
      | None -> (* v <> 0 satisfiable? *) Solver.solve ~assumptions:[ xv ] solver
      | Some `True -> Solver.solve ~assumptions:[ -xv ] solver
      | Some (`Var c) -> (
          (* need a fresh xor selector per query *)
          let d = Solver.new_var solver in
          Dfm_sat.Tseitin.xor_ solver ~out:d xv c;
          Solver.solve ~assumptions:[ d ] solver)
    in
    result = Solver.Unsat
  in
  (* Rebuild with substitution. *)
  let fresh = Aig.create () in
  let map = Array.make n Aig.lit_false in
  let classes = Hashtbl.create 256 in
  (* signature key -> (old node, polarity of stored signature) *)
  let norm_sig s =
    (* Normalize polarity: flip if the first word's lowest bit is 1. *)
    let flip = Int64.logand s.(0) 1L = 1L in
    let key = Array.map (fun w -> if flip then Int64.lognot w else w) s in
    (Array.to_list key, flip)
  in
  let zero_sig s = Array.for_all (fun w -> w = 0L) s in
  let ones_sig s = Array.for_all (fun w -> w = -1L) s in
  for v = 0 to n - 1 do
    match Aig.kind aig v with
    | Aig.Const0 -> map.(v) <- Aig.lit_false
    | Aig.Input name -> begin
        map.(v) <- Aig.input fresh name;
        let key, flip = norm_sig sig_.(v) in
        if not (Hashtbl.mem classes key) then Hashtbl.add classes key (v, flip)
      end
    | Aig.And (a, b) ->
        let lit_of l =
          let m = map.(Aig.node_of_lit l) in
          if Aig.is_complemented l then Aig.not_ m else m
        in
        let built = Aig.and_ fresh (lit_of a) (lit_of b) in
        let s = sig_.(v) in
        let resolved =
          if zero_sig s && proves_equal v (`Const false) then Some Aig.lit_false
          else if ones_sig s && proves_equal v (`Const true) then Some Aig.lit_true
          else begin
            let key, flip = norm_sig s in
            match Hashtbl.find_opt classes key with
            | Some (u, uflip) ->
                (* v == u when stored/current polarities agree *)
                let complement = flip <> uflip in
                let cand = Aig.mk_lit u complement in
                if proves_equal v (`Lit cand) then begin
                  let mu = map.(u) in
                  Some (if complement then Aig.not_ mu else mu)
                end
                else None
            | None ->
                Hashtbl.add classes key (v, flip);
                None
          end
        in
        map.(v) <- (match resolved with Some l -> l | None -> built)
  done;
  let outputs' =
    List.map
      (fun (name, l) ->
        let m = map.(Aig.node_of_lit l) in
        (name, if Aig.is_complemented l then Aig.not_ m else m))
      outputs
  in
  (fresh, outputs')

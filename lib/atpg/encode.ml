module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Solver = Dfm_sat.Solver
module Tseitin = Dfm_sat.Tseitin
module Cert = Dfm_sat.Cert

type test = { values : bool array; cared : bool array }

type verdict = Tests of test list | Undetectable | Unknown

(* A shared propagation cone: the faulty fanout copy plus the
   difference-at-observable-point requirement for one set of seed nets,
   encoded once under its own activation literal.  Faults at the same site
   — both stuck-at polarities, every UDFM entry of a gate, the frame-2
   part of its transitions — reuse one cone, so the clauses are built once
   and, more importantly, learnt clauses about sensitizing a path through
   the cone survive from one fault to the next.  [seed_fv] are the shared
   faulty variables of the seed nets; each query binds its own fault
   semantics to them under its own activation literal, so exactly one
   binding is live per solve. *)
type cone_group = {
  cone_act : int;
  seed_fv : (int * int) list;  (* seed net -> shared faulty var *)
  cone_vars : int list;        (* every cone-owned var, pinned on eviction *)
  cone_observable : bool;      (* reaches at least one observable point *)
  mutable cone_refs : int;     (* pending query parts bound to this cone *)
}

(* Miter-building context over one persistent solver.  The good-circuit
   encoding ([good]) is permanent and shared by every query of the session;
   propagation cones are shared per fault site ([cones], bounded LRU);
   everything else a single fault adds — its binding to the cone's faulty
   seeds, activation constraints — is guarded by the query's activation
   literal ([guard]) and registered in [locals] so it can be retired
   wholesale.  [faulty] and [touched] are scratch for cone construction.
   [acts_allocated] and [acts_retired] count activation literals, so the
   tests can check that none leaks. *)
type ctx = {
  nl : N.t;
  solver : Solver.t;
  good : int array;     (* net id -> good var (0 = not yet encoded) *)
  faulty : int array;   (* net id -> faulty var (0 = none / equal to good) *)
  is_observe : bool array;
  cones : (int list, cone_group) Hashtbl.t;  (* sorted seed nets -> cone *)
  mutable cone_lru : int list list;          (* cone keys, most recent first *)
  mutable guard : int option;  (* activation literal of the query being encoded *)
  mutable locals : int list;   (* private vars of the query being encoded *)
  mutable touched : int list;  (* nets whose [faulty] slot the cone build set *)
  mutable qcone : cone_group option;  (* cone used by the query being encoded *)
  cert : Cert.t option;
      (* certification session attached to [solver]: every clause and
         learnt step of this context is traced into it, and each query's
         verdict is checked against it before being reported *)
  mutable acts_allocated : int;
  mutable acts_retired : int;
}

let make_ctx ?(certify = false) ls =
  let nl = Dfm_sim.Logic_sim.netlist ls in
  let is_observe = Array.make (N.num_nets nl) false in
  List.iter (fun (_, n) -> is_observe.(n) <- true) (Dfm_sim.Logic_sim.observes ls);
  let solver = Solver.create () in
  {
    nl;
    solver;
    good = Array.make (N.num_nets nl) 0;
    faulty = Array.make (N.num_nets nl) 0;
    is_observe;
    cones = Hashtbl.create 16;
    cone_lru = [];
    guard = None;
    locals = [];
    touched = [];
    qcone = None;
    cert = (if certify then Some (Cert.create solver) else None);
    acts_allocated = 0;
    acts_retired = 0;
  }

let new_act ctx =
  ctx.acts_allocated <- ctx.acts_allocated + 1;
  Solver.new_var ctx.solver

let retire ctx ~act ~locals =
  ctx.acts_retired <- ctx.acts_retired + 1;
  Solver.retire ctx.solver ~act ~locals

(* A clause of the query being encoded: guarded by the activation literal. *)
let qcl ctx lits =
  match ctx.guard with
  | Some a -> Solver.add_clause ctx.solver (-a :: lits)
  | None -> Solver.add_clause ctx.solver lits

(* A private variable of the query being encoded. *)
let qvar ctx =
  let v = Solver.new_var ctx.solver in
  ctx.locals <- v :: ctx.locals;
  v

let set_faulty ctx n v =
  ctx.faulty.(n) <- v;
  ctx.touched <- n :: ctx.touched

(* Encode the fault-free function of a net, recursively pulling in its
   transitive fanin.  Nets driven by flip-flops are free variables (scan
   makes them controllable).  The encoding is permanent — never guarded —
   so later queries of the session reuse it as-is. *)
let rec good_var ctx n =
  if ctx.good.(n) <> 0 then ctx.good.(n)
  else begin
    let v = Solver.new_var ctx.solver in
    ctx.good.(n) <- v;
    (match (N.net ctx.nl n).N.driver with
    | N.Pi _ -> ()
    | N.Const b ->
        if b then Tseitin.const_true ctx.solver v
        else Tseitin.const_false ctx.solver v
    | N.Gate_out g ->
        let gg = N.gate ctx.nl g in
        if not gg.N.cell.Cell.is_seq then begin
          let ins = Array.map (fun fn -> good_var ctx fn) gg.N.fanins in
          Tseitin.of_truthtable ctx.solver ~out:v ins gg.N.cell.Cell.func
        end);
    v
  end

(* The transitive fanout of the seed nets through combinational gates,
   returned as (cone net set, member gates in topo order). *)
let fanout_cone ctx ls seeds =
  let in_cone = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace in_cone n ()) seeds;
  let order = Dfm_sim.Logic_sim.topo ls in
  let cone_gates = ref [] in
  Array.iter
    (fun gid ->
      let g = N.gate ctx.nl gid in
      if
        (not (Hashtbl.mem in_cone g.N.fanout))
        && Array.exists (fun fn -> Hashtbl.mem in_cone fn) g.N.fanins
      then begin
        Hashtbl.replace in_cone g.N.fanout ();
        cone_gates := gid :: !cone_gates
      end)
    order;
  (in_cone, List.rev !cone_gates)

(* Faulty copy of every cone gate (excluding the seeds, whose faulty vars the
   caller constrains), plus the difference-at-observable-point requirement.
   All of it belongs to the current query: guarded and local. *)
let build_cone_and_observe ctx ls seeds =
  let in_cone, cone_gates = fanout_cone ctx ls seeds in
  List.iter
    (fun gid ->
      let g = N.gate ctx.nl gid in
      let out = g.N.fanout in
      let v = qvar ctx in
      set_faulty ctx out v;
      let ins =
        Array.map
          (fun fn -> if ctx.faulty.(fn) <> 0 then ctx.faulty.(fn) else good_var ctx fn)
          g.N.fanins
      in
      Tseitin.of_truthtable ?act:ctx.guard ctx.solver ~out:v ins g.N.cell.Cell.func)
    cone_gates;
  let diffs = ref [] in
  Hashtbl.iter
    (fun n () ->
      if ctx.is_observe.(n) then begin
        let d = qvar ctx in
        Tseitin.xor_ ?act:ctx.guard ctx.solver ~out:d (good_var ctx n) ctx.faulty.(n);
        diffs := d :: !diffs
      end)
    in_cone;
  match !diffs with
  | [] -> false  (* no observable point reachable: trivially undetectable *)
  | ds ->
      qcl ctx ds;
      true

(* Live cones are bounded: once [max_live_cones] are live, the
   least-recently-used cone with no pending queries is retired (activation
   permanently off, variables pinned), exactly like a finished query.
   Fault lists keep the entries of one site together, so a small window
   captures nearly all of the reuse while the session stays free of
   unconstrained-variable bloat.  Retiring a cone is sound for the same
   reason retiring a query is: every clause over a cone variable carries
   [¬cone_act] — or belongs to an already-retired query — so pinning the
   variables constrains nothing that is still reachable. *)
let max_live_cones = 8

let cone_for ctx ls seeds =
  let key = List.sort_uniq compare seeds in
  let g =
    match Hashtbl.find_opt ctx.cones key with
    | Some g ->
        ctx.cone_lru <- key :: List.filter (fun k -> k <> key) ctx.cone_lru;
        g
    | None ->
        if Hashtbl.length ctx.cones >= max_live_cones then begin
          match
            List.find_opt
              (fun k ->
                match Hashtbl.find_opt ctx.cones k with
                | Some g -> g.cone_refs = 0
                | None -> false)
              (List.rev ctx.cone_lru)
          with
          | Some victim ->
              let v = Hashtbl.find ctx.cones victim in
              retire ctx ~act:v.cone_act ~locals:v.cone_vars;
              Hashtbl.remove ctx.cones victim;
              ctx.cone_lru <- List.filter (fun k -> k <> victim) ctx.cone_lru
          | None -> ()
        end;
        let cone_act = new_act ctx in
        let saved_guard = ctx.guard and saved_locals = ctx.locals in
        ctx.guard <- Some cone_act;
        ctx.locals <- [];
        let seed_fv =
          List.map
            (fun n ->
              let v = qvar ctx in
              set_faulty ctx n v;
              (n, v))
            key
        in
        let cone_observable = build_cone_and_observe ctx ls key in
        let cone_vars = ctx.locals in
        ctx.guard <- saved_guard;
        ctx.locals <- saved_locals;
        let g = { cone_act; seed_fv; cone_vars; cone_observable; cone_refs = 0 } in
        Hashtbl.replace ctx.cones key g;
        ctx.cone_lru <- key :: ctx.cone_lru;
        g
  in
  ctx.qcone <- Some g;
  g

let extract_tests ctx ls =
  let ins = Dfm_sim.Logic_sim.inputs ls in
  let values =
    Array.of_list
      (List.map
         (fun (_, n) -> ctx.good.(n) <> 0 && Solver.value ctx.solver ctx.good.(n))
         ins)
  in
  let cared = Array.of_list (List.map (fun (_, n) -> ctx.good.(n) <> 0) ins) in
  { values; cared }

(* Pattern-matching constraint: the good values of a gate's fanins equal one
   of the given minterms. *)
let add_activation_minterms ctx (g : N.gate) minterms =
  let n = Array.length g.N.fanins in
  let fanin_vars = Array.map (fun fn -> good_var ctx fn) g.N.fanins in
  let selectors =
    List.map
      (fun m ->
        let s = qvar ctx in
        let lits =
          Array.to_list
            (Array.mapi (fun k v -> if (m lsr k) land 1 = 1 then v else -v) fanin_vars)
        in
        Tseitin.and_ ?act:ctx.guard ctx.solver ~out:s lits;
        ignore n;
        s)
      minterms
  in
  qcl ctx selectors

let lit_for_value var value = if value then var else -var

let is_seq_gate nl g = (N.gate nl g).N.cell.Cell.is_seq

let forced = function F.Sa0 -> false | F.Sa1 -> true

(* ------------------------------------------------------------------ *)
(* Per-query encoders.  Each returns [true] when the query has at least  *)
(* one observable difference point (i.e. is worth solving).             *)
(* ------------------------------------------------------------------ *)

(* A pure controllability query: can [net] take [value]? *)
let encode_controllability net value ctx _ls =
  qcl ctx [ lit_for_value (good_var ctx net) value ];
  true

(* Stuck-at detection query (also the frame-2 component of transitions). *)
let encode_stuck loc pol ctx ls =
  let nl = ctx.nl in
  match loc with
  | F.On_pin (g, pin) when is_seq_gate nl g ->
      (* The flop captures the forced value; detection = putting the opposite
         value on D. *)
      encode_controllability (N.gate nl g).N.fanins.(pin) (not (forced pol)) ctx ls
  | F.On_net n ->
      (* Seed nets are part of the cone, so an observable seed (PO or flop
         D net) contributes its own difference variable. *)
      let cone = cone_for ctx ls [ n ] in
      let fv = List.assoc n cone.seed_fv in
      qcl ctx [ lit_for_value fv (forced pol) ];
      (* Activation: the good value differs from the forced one. *)
      qcl ctx [ lit_for_value (good_var ctx n) (not (forced pol)) ];
      cone.cone_observable
  | F.On_pin (g, pin) ->
      let gg = N.gate nl g in
      let out = gg.N.fanout in
      let cone = cone_for ctx ls [ out ] in
      let fv = List.assoc out cone.seed_fv in
      (* Faulty host-gate evaluation with the pin forced, driving the
         cone's shared faulty output under this query's guard. *)
      let ins =
        Array.mapi
          (fun k fn ->
            if k = pin then (
              let c = qvar ctx in
              qcl ctx [ lit_for_value c (forced pol) ];
              c)
            else good_var ctx fn)
          gg.N.fanins
      in
      Tseitin.of_truthtable ?act:ctx.guard ctx.solver ~out:fv ins gg.N.cell.Cell.func;
      (* Activation: the pin's good value differs from the forced one. *)
      qcl ctx [ lit_for_value (good_var ctx gg.N.fanins.(pin)) (not (forced pol)) ];
      cone.cone_observable

let encode_bridge n1 n2 k ctx ls =
  let g1 = good_var ctx n1 and g2 = good_var ctx n2 in
  let cone = cone_for ctx ls [ n1; n2 ] in
  let fv1 = List.assoc n1 cone.seed_fv and fv2 = List.assoc n2 cone.seed_fv in
  (* The wired function drives both bridged nets' shared faulty vars. *)
  let r = qvar ctx in
  (match k with
  | F.Wired_and -> Tseitin.and_ ?act:ctx.guard ctx.solver ~out:r [ g1; g2 ]
  | F.Wired_or -> Tseitin.or_ ?act:ctx.guard ctx.solver ~out:r [ g1; g2 ]);
  qcl ctx [ -fv1; r ];
  qcl ctx [ fv1; -r ];
  qcl ctx [ -fv2; r ];
  qcl ctx [ fv2; -r ];
  (* Activation: the bridged nets must disagree. *)
  let d = qvar ctx in
  Tseitin.xor_ ?act:ctx.guard ctx.solver ~out:d g1 g2;
  qcl ctx [ d ];
  cone.cone_observable

let encode_internal g entry_idx ctx ls =
  let gg = N.gate ctx.nl g in
  let u = Dfm_cellmodel.Udfm.for_cell gg.N.cell.Cell.name in
  let entry = List.nth u.Dfm_cellmodel.Udfm.entries entry_idx in
  let activation = entry.Dfm_cellmodel.Udfm.activation in
  if gg.N.cell.Cell.is_seq then begin
    (* Activation over the D value; the corrupted captured value is
       observed directly on the scan path. *)
    let d = good_var ctx gg.N.fanins.(0) in
    let lits = List.map (fun m -> lit_for_value d (m land 1 = 1)) activation in
    qcl ctx lits;
    true
  end
  else begin
    let out = gg.N.fanout in
    add_activation_minterms ctx gg activation;
    (* When activated the defective cell output is the complement of the
       good output (see Udfm); the binding to the cone's shared faulty
       output is guarded by this query. *)
    let cone = cone_for ctx ls [ out ] in
    let fv = List.assoc out cone.seed_fv in
    Tseitin.not_ ?act:ctx.guard ctx.solver ~out:fv (good_var ctx out);
    cone.cone_observable
  end

let transition_components tr =
  (* (frame-1 required initial value, frame-2 stuck polarity) *)
  match tr with F.Slow_to_rise -> (false, F.Sa0) | F.Slow_to_fall -> (true, F.Sa1)

let loc_net nl = function
  | F.On_net n -> n
  | F.On_pin (g, pin) -> (N.gate nl g).N.fanins.(pin)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* A query part still awaiting a verdict: its activation literal stays live
   so an escalated re-check re-solves without re-encoding.  The cone it is
   bound to (if any) is ref-counted so eviction never disables it. *)
type part = { act : int; cone : cone_group option; locals : int list }

type session = {
  ctx : ctx;
  ls : Dfm_sim.Logic_sim.t;
  pending : (F.t * int, part) Hashtbl.t;
  results : (F.t * int, test) Hashtbl.t;
      (* Sat parts of not-yet-fully-resolved faults (transition frame-1
         solved, frame-2 still pending) — kept so a re-check does not
         re-derive them, dropped once the fault's verdict is final. *)
}

let make_session ?certify ls =
  {
    ctx = make_ctx ?certify ls;
    ls;
    pending = Hashtbl.create 64;
    results = Hashtbl.create 16;
  }

let session_solver sess = sess.ctx.solver
let activation_counts sess = (sess.ctx.acts_allocated, sess.ctx.acts_retired)
let pending_parts sess = Hashtbl.length sess.pending
let live_cones sess = Hashtbl.length sess.ctx.cones

(* Run one query part: reuse its live activation group if the part is
   pending from an earlier (budget-exhausted) attempt, otherwise encode it
   fresh under a new activation literal.  Final verdicts retire the group;
   Unknown keeps it pending for the next, larger budget. *)
let run_part ?max_conflicts sess f idx encode =
  let key = (f, idx) in
  match Hashtbl.find_opt sess.results key with
  | Some t -> Tests [ t ]
  | None -> (
      let part =
        match Hashtbl.find_opt sess.pending key with
        | Some p -> Some p
        | None ->
            let act = new_act sess.ctx in
            sess.ctx.guard <- Some act;
            sess.ctx.locals <- [];
            sess.ctx.qcone <- None;
            let observable = encode sess.ctx sess.ls in
            let locals = sess.ctx.locals in
            let cone = sess.ctx.qcone in
            sess.ctx.guard <- None;
            sess.ctx.locals <- [];
            sess.ctx.qcone <- None;
            List.iter (fun n -> sess.ctx.faulty.(n) <- 0) sess.ctx.touched;
            sess.ctx.touched <- [];
            if observable then begin
              (match cone with Some c -> c.cone_refs <- c.cone_refs + 1 | None -> ());
              let p = { act; cone; locals } in
              Hashtbl.replace sess.pending key p;
              Some p
            end
            else begin
              retire sess.ctx ~act ~locals;
              None
            end
      in
      let drop_part { act; cone; locals } =
        retire sess.ctx ~act ~locals;
        (match cone with Some c -> c.cone_refs <- c.cone_refs - 1 | None -> ());
        Hashtbl.remove sess.pending key
      in
      match part with
      | None ->
          (* Structurally unobservable — no difference point reaches an
             observable net.  The cone construction just re-derived that
             fact, so in certified mode it counts as a checked verdict. *)
          (match sess.ctx.cert with
          | Some _ -> Cert.note_check ~ok:true ~ns:0L
          | None -> ());
          Undetectable
      | Some ({ act; cone; locals } as p) -> (
          (* Point the branching heuristic at this query's variables — its
             own binding plus its cone: in a long-lived session VSIDS still
             reflects earlier queries' hot spots, and without the nudge the
             search wanders the shared CNF before touching the cone it is
             actually asked about. *)
          let cone_vars =
            match cone with Some c -> c.cone_vars | None -> []
          in
          Solver.focus_vars sess.ctx.solver (locals @ cone_vars);
          let assumptions =
            match cone with Some c -> [ act; c.cone_act ] | None -> [ act ]
          in
          match Solver.solve ?max_conflicts ~assumptions sess.ctx.solver with
          | Solver.Sat ->
              (* Certified mode: the reported model must satisfy every clause
                 ever given to the solver — checked by replaying the raw
                 clause trace, independent of the solver's own bookkeeping. *)
              (match sess.ctx.cert with
              | Some cert ->
                  Cert.check_model cert ~assumptions ~value:(Solver.value sess.ctx.solver)
              | None -> ());
              let t = extract_tests sess.ctx sess.ls in
              drop_part p;
              Hashtbl.replace sess.results key t;
              Tests [ t ]
          | Solver.Unsat ->
              (* Certified mode: replay the learnt-clause proof through the
                 independent checker; the Undetectable verdict stands only if
                 unit propagation alone refutes the query's assumptions. *)
              (match sess.ctx.cert with
              | Some cert -> Cert.check_unsat cert ~assumptions
              | None -> ());
              drop_part p;
              Undetectable
          | Solver.Unknown -> Unknown))

let check_incr ?max_conflicts sess (f : F.t) =
  let finish v =
    (match v with
    | Unknown -> ()
    | Tests _ | Undetectable ->
        Hashtbl.remove sess.results (f, 0);
        Hashtbl.remove sess.results (f, 1));
    v
  in
  match f.F.kind with
  | F.Stuck (loc, pol) -> finish (run_part ?max_conflicts sess f 0 (encode_stuck loc pol))
  | F.Transition (loc, tr) ->
      let nl = sess.ctx.nl in
      let init_value, pol = transition_components tr in
      finish
        (match
           run_part ?max_conflicts sess f 0
             (encode_controllability (loc_net nl loc) init_value)
         with
        | Undetectable -> Undetectable
        | Unknown -> Unknown
        | Tests init_tests -> (
            match run_part ?max_conflicts sess f 1 (encode_stuck loc pol) with
            | Undetectable -> Undetectable
            | Unknown -> Unknown
            | Tests stuck_tests -> Tests (init_tests @ stuck_tests)))
  | F.Bridge (n1, n2, k) -> finish (run_part ?max_conflicts sess f 0 (encode_bridge n1 n2 k))
  | F.Internal (g, entry_idx) ->
      finish (run_part ?max_conflicts sess f 0 (encode_internal g entry_idx))

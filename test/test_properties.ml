(* Property-based differential tests.

   Two engine pairs are cross-checked on random inputs:

   - [Fault_sim.detect_word] and [Fault_sim.syndrome] (event-driven,
     fanout-cone-only propagation through compiled cell programs) against a
     brute-force faulty-copy resimulation that recomputes every net of the
     circuit with the fault injected by minterm expansion, on netlists
     drawing from every library cell, flip-flops included;

   - the Tseitin CNF encodings of [Dfm_sat] against exhaustive truth-table
     enumeration, assignment by assignment. *)

module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Ls = Dfm_sim.Logic_sim
module Fs = Dfm_sim.Fault_sim
module Rng = Dfm_util.Rng
module Tt = Dfm_logic.Truthtable
module Solver = Dfm_sat.Solver
module Tseitin = Dfm_sat.Tseitin

let lib = Dfm_cellmodel.Osu018.library
let table = lazy (Dfm_synth.Mapper.build_table lib)
let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 }

let random_netlist seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"prop" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  let cells = [| "INVX1"; "NAND2X1"; "NOR2X1"; "XOR2X1"; "AOI21X1"; "OAI21X1" |] in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let cname = Rng.pick rng cells in
    let c = Dfm_netlist.Library.find lib cname in
    let fanins = Array.init (Cell.arity c) (fun _ -> Rng.pick rng arr) in
    nets := B.add_gate b ~cell:cname fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 3 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

(* Draws from every library cell, flip-flops included (their Q nets are
   controllable and their D nets observable, full-scan style). *)
let random_netlist_all_cells seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"prop_all" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  let cells = Array.of_list (Dfm_netlist.Library.cells lib) in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let c = Rng.pick rng cells in
    let fanins = Array.init (Cell.arity c) (fun _ -> Rng.pick rng arr) in
    nets := B.add_gate b ~cell:c.Cell.name fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 3 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

(* ------------------------------------------------------------------ *)
(* detect_word vs brute-force faulty-copy resimulation                  *)
(* ------------------------------------------------------------------ *)

let eval_tt_words (f : Tt.t) ws =
  let n = Tt.arity f in
  let out = ref 0L in
  for m = 0 to (1 lsl n) - 1 do
    if Tt.eval_index f m then begin
      let term = ref (-1L) in
      for k = 0 to n - 1 do
        term := Int64.logand !term (if (m lsr k) land 1 = 1 then ws.(k) else Int64.lognot ws.(k))
      done;
      out := Int64.logor !out !term
    end
  done;
  !out

let minterm_word ws minterms =
  let n = Array.length ws in
  List.fold_left
    (fun acc m ->
      let term = ref (-1L) in
      for k = 0 to n - 1 do
        term := Int64.logand !term (if (m lsr k) land 1 = 1 then ws.(k) else Int64.lognot ws.(k))
      done;
      Int64.logor acc !term)
    0L minterms

let forced_word = function F.Sa0 -> 0L | F.Sa1 -> -1L

let forced_site = function
  | F.Stuck (_, pol) -> forced_word pol
  | F.Transition (_, tr) ->
      (* frame-2 component: the site behaves as the matching stuck-at *)
      forced_word (match tr with F.Slow_to_rise -> F.Sa0 | F.Slow_to_fall -> F.Sa1)
  | F.Bridge _ | F.Internal _ -> assert false

(* Recompute every net with the fault injected; no event propagation, no
   cones — the clumsy-but-obvious reference implementation.  Returns, per
   observable net, the word of patterns on which an observer of that net
   sees a difference: a primary output reads the net, a flip-flop captures
   it through its D pin (where pin and internal flop faults act) onto the
   scan path. *)
let brute_syndrome nl (f : F.t) ~good words =
  let values = Array.make (N.num_nets nl) 0L in
  let override_net n = match f.F.kind with
    | (F.Stuck (F.On_net fn, _) | F.Transition (F.On_net fn, _)) when fn = n ->
        values.(n) <- forced_site f.F.kind
    | F.Bridge (n1, n2, k) when n = n1 || n = n2 ->
        (* resolution over the fault-free values, as in the simulator's
           bridge model; the test only generates independent net pairs *)
        values.(n) <-
          (match k with
          | F.Wired_and -> Int64.logand (Ls.value good n1) (Ls.value good n2)
          | F.Wired_or -> Int64.logor (Ls.value good n1) (Ls.value good n2))
    | _ -> ()
  in
  List.iteri
    (fun i (_, nid) ->
      values.(nid) <- words.(i);
      override_net nid)
    (N.input_nets nl);
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const v ->
          values.(nn.N.net_id) <- (if v then -1L else 0L);
          override_net nn.N.net_id
      | N.Pi _ | N.Gate_out _ -> ())
    nl.N.nets;
  (* the cell's input words with a pin fault applied, and the word of
     patterns on which an internal fault of the cell is activated *)
  let cell_inputs gid (g : N.gate) =
    let ins = Array.map (fun n -> values.(n)) g.N.fanins in
    (match f.F.kind with
    | (F.Stuck (F.On_pin (fg, pin), _) | F.Transition (F.On_pin (fg, pin), _)) when fg = gid ->
        ins.(pin) <- forced_site f.F.kind
    | _ -> ());
    let flip =
      match f.F.kind with
      | F.Internal (fg, entry_idx) when fg = gid ->
          let u = Dfm_cellmodel.Udfm.for_cell g.N.cell.Cell.name in
          let entry = List.nth u.Dfm_cellmodel.Udfm.entries entry_idx in
          minterm_word ins entry.Dfm_cellmodel.Udfm.activation
      | _ -> 0L
    in
    (ins, flip)
  in
  Array.iter
    (fun gid ->
      let g = N.gate nl gid in
      (* when activated the defective cell inverts its output; the
         activation condition is over the cell's own input values *)
      let ins, flip = cell_inputs gid g in
      values.(g.N.fanout) <- Int64.logxor (eval_tt_words g.N.cell.Cell.func ins) flip;
      override_net g.N.fanout)
    (N.topo_order nl);
  let diff = Hashtbl.create 8 in
  let see n w =
    let prev = Option.value ~default:0L (Hashtbl.find_opt diff n) in
    Hashtbl.replace diff n (Int64.logor prev (Int64.logxor (Ls.value good n) w))
  in
  Array.iter (fun (_, n) -> see n values.(n)) nl.N.pos;
  List.iter
    (fun (g : N.gate) ->
      let ins, flip = cell_inputs g.N.gate_id g in
      see g.N.fanins.(0) (Int64.logxor ins.(0) flip))
    (N.seq_gates nl);
  Hashtbl.fold (fun n w acc -> if w <> 0L then (n, w) :: acc else acc) diff []
  |> List.sort compare

(* Forward reachability over nets, for picking independent bridge pairs. *)
let downstream nl =
  let reach = Array.init (N.num_nets nl) (fun n -> [ n ]) in
  let order = N.topo_order nl in
  (* process gates in reverse topo order: out's reachable set feeds fanins *)
  for i = Array.length order - 1 downto 0 do
    let g = N.gate nl order.(i) in
    Array.iter
      (fun fn -> reach.(fn) <- List.sort_uniq compare (reach.(g.N.fanout) @ reach.(fn)))
      g.N.fanins
  done;
  fun a b -> List.mem b reach.(a)

let faults_of_netlist nl rng =
  let faults = ref [] in
  let id = ref 0 in
  let add kind =
    faults := { F.fault_id = !id; kind; origin } :: !faults;
    incr id
  in
  Array.iter
    (fun (nn : N.net) ->
      List.iter (fun pol -> add (F.Stuck (F.On_net nn.N.net_id, pol))) [ F.Sa0; F.Sa1 ];
      List.iter
        (fun tr -> add (F.Transition (F.On_net nn.N.net_id, tr)))
        [ F.Slow_to_rise; F.Slow_to_fall ])
    nl.N.nets;
  Array.iteri
    (fun gid (g : N.gate) ->
      Array.iteri
        (fun pin _ ->
          List.iter (fun pol -> add (F.Stuck (F.On_pin (gid, pin), pol))) [ F.Sa0; F.Sa1 ];
          add (F.Transition (F.On_pin (gid, pin), F.Slow_to_rise)))
        g.N.fanins;
      let u = Dfm_cellmodel.Udfm.for_cell g.N.cell.Cell.name in
      List.iteri (fun entry_idx _ -> add (F.Internal (gid, entry_idx))) u.Dfm_cellmodel.Udfm.entries)
    nl.N.gates;
  (* a few bridges between independent nets (neither reaches the other) *)
  let reaches = downstream nl in
  let nn = N.num_nets nl in
  for _ = 1 to 8 do
    let a = Rng.int rng nn and b = Rng.int rng nn in
    if a <> b && (not (reaches a b)) && not (reaches b a) then
      List.iter (fun k -> add (F.Bridge (a, b, k))) [ F.Wired_and; F.Wired_or ]
  done;
  List.rev !faults

let prop_detect_word_vs_brute =
  QCheck.Test.make ~name:"detect_word matches brute-force faulty resimulation" ~count:20
    QCheck.(pair (int_range 1 10000) (int_range 3 14))
    (fun (seed, ngates) ->
      let nl = random_netlist_all_cells seed 4 ngates in
      let rng = Rng.create (seed lxor 0x5eed) in
      let faults = faults_of_netlist nl rng in
      let ls = Ls.prepare nl in
      let fs = Fs.prepare nl in
      let show points =
        String.concat " " (List.map (fun (n, w) -> Printf.sprintf "%d:%Lx" n w) points)
      in
      let block () =
        let words = Ls.random_words ls rng in
        (words, Ls.run ls words)
      in
      let first = block () in
      let second = block () in
      (* The first store is visited again after the second: detect_word's
         per-net observability must follow the store it is given. *)
      List.for_all
        (fun (words, good) ->
          List.for_all
            (fun (f : F.t) ->
              let brute = brute_syndrome nl f ~good words in
              let brute_detect = List.fold_left (fun acc (_, w) -> Int64.logor acc w) 0L brute in
              let fast = Fs.detect_word fs ~good f in
              let syndrome = Fs.syndrome fs ~good f in
              if fast <> brute_detect then
                QCheck.Test.fail_reportf "fault %d (%s): detect_word %Lx but brute force %Lx"
                  f.F.fault_id (F.describe nl f) fast brute_detect
              else if syndrome <> brute then
                QCheck.Test.fail_reportf "fault %d (%s): syndrome [%s] but brute force [%s]"
                  f.F.fault_id (F.describe nl f) (show syndrome) (show brute)
              else true)
            faults)
        [ first; second; first ])

(* init_word: the frame-1 condition is by definition the word of patterns
   putting the site at the pre-transition value. *)
let prop_init_word =
  QCheck.Test.make ~name:"init_word is the pre-transition site condition" ~count:20
    QCheck.(int_range 1 10000)
    (fun seed ->
      let nl = random_netlist_all_cells seed 4 8 in
      let ls = Ls.prepare nl in
      let fs = Fs.prepare nl in
      let rng = Rng.create seed in
      let words = Ls.random_words ls rng in
      let good = Ls.run ls words in
      Array.for_all
        (fun (nn : N.net) ->
          List.for_all
            (fun (tr, expect) ->
              let f = { F.fault_id = 0; kind = F.Transition (F.On_net nn.N.net_id, tr); origin } in
              Fs.init_word fs ~good f = expect nn.N.net_id)
            [
              (F.Slow_to_rise, fun n -> Int64.lognot (Ls.value good n));
              (F.Slow_to_fall, fun n -> Ls.value good n);
            ])
        nl.N.nets)

(* Every compiled cell program and every compiled UDFM activation program
   against minterm expansion: on the minterm-broadcast words (input [k]'s
   word has bit [m] set iff bit [k] of [m] is, so the result word is the
   whole truth table) and on random words. *)
let test_programs_match_minterm_expansion () =
  let rng = Rng.create 0x9e3 in
  let broadcast arity =
    Array.init arity (fun k ->
        List.fold_left
          (fun acc m ->
            if (m lsr k) land 1 = 1 then Int64.logor acc (Int64.shift_left 1L m) else acc)
          0L
          (List.init (1 lsl arity) Fun.id))
  in
  let inputs arity =
    broadcast arity :: List.init 8 (fun _ -> Array.init arity (fun _ -> Rng.bits64 rng))
  in
  List.iter
    (fun (c : Cell.t) ->
      let arity = Cell.arity c in
      List.iter
        (fun ws ->
          Alcotest.(check int64) (c.Cell.name ^ " program")
            (eval_tt_words c.Cell.func ws)
            (Dfm_logic.Wordprog.eval c.Cell.prog ws);
          List.iteri
            (fun i (e : Dfm_cellmodel.Udfm.entry) ->
              Alcotest.(check int64)
                (Printf.sprintf "%s activation %d" c.Cell.name i)
                (minterm_word ws e.Dfm_cellmodel.Udfm.activation)
                (Dfm_logic.Wordprog.eval e.Dfm_cellmodel.Udfm.program ws))
            (Dfm_cellmodel.Udfm.for_cell c.Cell.name).Dfm_cellmodel.Udfm.entries)
        (inputs arity))
    (Dfm_netlist.Library.cells lib)

(* ------------------------------------------------------------------ *)
(* Tseitin CNF vs truth-table enumeration                               *)
(* ------------------------------------------------------------------ *)

let lit v b = if b then v else -v

(* Build a fresh solver encoding [out = tt(ins)] with the inputs pinned to
   assignment [m], then ask whether [out = value] is satisfiable. *)
let tseitin_sat tt m value =
  let s = Solver.create () in
  let ins = Array.init (Tt.arity tt) (fun _ -> Solver.new_var s) in
  let out = Solver.new_var s in
  Tseitin.of_truthtable s ~out ins tt;
  Array.iteri (fun k v -> Solver.add_clause s [ lit v ((m lsr k) land 1 = 1) ]) ins;
  Solver.add_clause s [ lit out value ];
  match Solver.solve s with
  | Solver.Sat -> true
  | Solver.Unsat -> false
  | Solver.Unknown -> QCheck.Test.fail_report "unbounded solve returned Unknown"

let prop_tseitin_vs_truth_table =
  QCheck.Test.make ~name:"Tseitin of_truthtable matches truth-table enumeration" ~count:60
    QCheck.(pair (int_range 1 4) int64)
    (fun (arity, bits) ->
      let tt = Tt.of_bits ~arity bits in
      List.for_all
        (fun m ->
          let expected = Tt.eval_index tt m in
          (* the CNF must force exactly the tabulated output value *)
          tseitin_sat tt m expected && not (tseitin_sat tt m (not expected)))
        (List.init (1 lsl arity) (fun m -> m)))

(* The gate helpers must agree with the equivalent truth tables. *)
let prop_tseitin_gates =
  QCheck.Test.make ~name:"Tseitin gate encoders match their truth tables" ~count:40
    QCheck.(int_range 0 63)
    (fun m ->
      let check2 encode f =
        let s = Solver.create () in
        let a = Solver.new_var s and b = Solver.new_var s in
        let out = Solver.new_var s in
        encode s ~out a b;
        Solver.add_clause s [ lit a (m land 1 = 1) ];
        Solver.add_clause s [ lit b (m land 2 = 2) ];
        Solver.add_clause s [ lit out (f (m land 1 = 1) (m land 2 = 2)) ];
        Solver.solve s = Solver.Sat
      in
      check2 (fun s ~out a b -> Tseitin.xor_ s ~out a b) ( <> )
      && check2 (fun s ~out a b -> Tseitin.and_ s ~out [ a; b ]) ( && )
      && check2 (fun s ~out a b -> Tseitin.or_ s ~out [ a; b ]) ( || )
      && check2
           (fun s ~out a b ->
             let sel = Solver.new_var s in
             Solver.add_clause s [ lit sel (m land 4 = 4) ];
             Tseitin.mux s ~out ~sel a b)
           (fun a b -> if m land 4 = 4 then b else a))

(* ------------------------------------------------------------------ *)
(* Verdict cache vs uncached classification                            *)
(* ------------------------------------------------------------------ *)

module Atpg = Dfm_atpg.Atpg
module Cache = Dfm_incr.Cache

let same_classification (a : Atpg.classification) (b : Atpg.classification) =
  (* everything must match except [sat_queries], which is exactly the work
     the cache is allowed to skip *)
  let ca = a.Atpg.counts and cb = b.Atpg.counts in
  a.Atpg.status = b.Atpg.status
  && ca.Atpg.total = cb.Atpg.total
  && ca.Atpg.detected = cb.Atpg.detected
  && ca.Atpg.undetectable = cb.Atpg.undetectable
  && ca.Atpg.aborted = cb.Atpg.aborted
  && ca.Atpg.undetectable_internal = cb.Atpg.undetectable_internal
  && ca.Atpg.undetectable_external = cb.Atpg.undetectable_external

(* A random netlist taken through a random sequence of gate replacements —
   the resynthesis loop in miniature.  At every version, classification
   without a cache, with a fresh (cold) cache, again with that now-warm
   cache, and with one cache shared across the whole edit sequence must be
   bit-identical; the cache may only reduce [sat_queries]. *)
let prop_cache_never_changes_verdicts =
  QCheck.Test.make ~name:"verdict cache never changes a classification" ~count:8
    QCheck.(pair (int_range 1 10000) (int_range 3 9))
    (fun (seed, ngates) ->
      let versions =
        let rec grow acc nl k =
          if k = 0 then List.rev acc
          else
            let rng = Rng.create ((seed * 31) + k) in
            let n = Array.length nl.N.gates in
            let gates =
              List.sort_uniq compare (List.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng n))
            in
            match Dfm_synth.Convert.remap_region nl ~gates ~table:(Lazy.force table) with
            | nl' -> grow (nl' :: acc) nl' (k - 1)
            | exception Dfm_synth.Mapper.Unmappable _ -> grow acc nl (k - 1)
        in
        let nl0 = random_netlist seed 4 ngates in
        grow [ nl0 ] nl0 3
      in
      let shared = Cache.create () in
      List.for_all
        (fun nl ->
          let rng = Rng.create (seed lxor 0xcafe) in
          let faults = Array.of_list (faults_of_netlist nl rng) in
          let plain = Atpg.classify nl faults in
          let cache = Cache.create () in
          let cold = Atpg.classify ~cache nl faults in
          let warm = Atpg.classify ~cache nl faults in
          let carried = Atpg.classify ~cache:shared nl faults in
          same_classification plain cold
          && same_classification plain warm
          && same_classification plain carried
          && warm.Atpg.counts.Atpg.sat_queries = 0
          && cold.Atpg.counts.Atpg.sat_queries <= plain.Atpg.counts.Atpg.sat_queries
          && carried.Atpg.counts.Atpg.sat_queries <= plain.Atpg.counts.Atpg.sat_queries)
        versions)

(* The abort-budget escalation ladder must be a pure effort policy: when
   it resolves every abort, the result is bit-identical (modulo
   [sat_queries]) to one classification run at the unbounded budget, and
   each rung can only shrink the aborted set.  Verdicts are budget- and
   history-independent, so a ladder that leaves no abort behind must land
   exactly where an unbounded run does. *)
let prop_escalation_matches_unbounded =
  QCheck.Test.make ~name:"abort escalation equals one classify at the unbounded budget"
    ~count:10
    QCheck.(pair (int_range 1 10000) (int_range 6 14))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 5 ngates in
      let rng = Rng.create (seed lxor 0xabcd) in
      let faults = Array.of_list (faults_of_netlist nl rng) in
      let esc = Atpg.classify ~max_conflicts:1 nl faults in
      match esc.Atpg.escalation with
      | None -> esc.Atpg.counts.Atpg.aborted = 0
      | Some stats ->
          (* every abort the SAT blocks left is resolved or residual *)
          let start = stats.Atpg.resolved + stats.Atpg.residual in
          let monotone =
            let rec ok prev = function
              | [] -> true
              | x :: tl -> x <= prev && ok x tl
            in
            ok start stats.Atpg.aborted_per_rung
          in
          if not monotone then
            QCheck.Test.fail_reportf "aborted_per_rung not monotone: start %d, rungs [%s]"
              start
              (String.concat "; " (List.map string_of_int stats.Atpg.aborted_per_rung));
          if esc.Atpg.counts.Atpg.aborted <> stats.Atpg.residual then
            QCheck.Test.fail_reportf "residual %d but escalated classification reports %d aborts"
              stats.Atpg.residual esc.Atpg.counts.Atpg.aborted;
          stats.Atpg.residual > 0
          || same_classification esc (Atpg.classify nl faults)
          || QCheck.Test.fail_reportf
               "ladder (%d rungs, %d retried) differs from the unbounded classify"
               stats.Atpg.rungs stats.Atpg.retried)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_detect_word_vs_brute;
    QCheck_alcotest.to_alcotest prop_init_word;
    Alcotest.test_case "cell and activation programs = minterm expansion" `Quick
      test_programs_match_minterm_expansion;
    QCheck_alcotest.to_alcotest prop_tseitin_vs_truth_table;
    QCheck_alcotest.to_alcotest prop_tseitin_gates;
    QCheck_alcotest.to_alcotest prop_cache_never_changes_verdicts;
    QCheck_alcotest.to_alcotest prop_escalation_matches_unbounded;
  ]

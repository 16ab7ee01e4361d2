module N = Dfm_netlist.Netlist
module F = Dfm_faults.Fault
module Cell = Dfm_netlist.Cell
module W = Dfm_logic.Wordprog
module A = Bigarray.Array1

let m_faults =
  Dfm_obs.Metrics.counter ~help:"Faults simulated by the fault-simulation kernel"
    "dfm_sim_faults_simulated_total"

let m_gate_evals =
  Dfm_obs.Metrics.counter
    ~help:"Gate evaluations by the fault-simulation kernel (queued fanout gates)"
    "dfm_sim_gate_evals_total"

(* The netlist flattened into a gate table and a net table (compressed
   sparse rows: the fanins of gate [g] are [fanin.(fanin_start.(g)) ..
   fanin.(fanin_start.(g+1) - 1)], likewise the combinational sinks of a
   net), plus the per-fault scratch.  A net's faulty word in [faulty] and a
   gate's queued flag are valid only while their stamp equals [epoch], so
   starting a fault is one increment and nothing is ever reset.  The
   per-net observability words in [obs] are stamped the same way, with one
   epoch per fault-free store. *)
type t = {
  ls : Logic_sim.t;
  fanin_start : int array;
  fanin : int array;
  gate_out : int array;
  prog : W.t array;        (* per gate: compiled cell function *)
  acts : W.t array array;  (* per gate: compiled activation of each UDFM entry *)
  is_seq : bool array;
  level : int array;       (* per gate: logic level (combinational gates) *)
  sink_start : int array;
  sink : int array;        (* combinational sink gates only *)
  observe : bool array;
  (* Level buckets: the gates queued at level [l] sit in
     [queue.(bucket.(l)) .. queue.(bucket.(l) + fill.(l) - 1)]; a bucket
     holds every gate of its level at most once. *)
  bucket : int array;
  fill : int array;
  queue : int array;
  mutable lo : int;        (* lowest and highest level queued *)
  mutable hi : int;
  faulty : Words.t;
  net_stamp : int array;
  gate_stamp : int array;
  mutable epoch : int;
  regs : W.regs;
  detect : Words.t;        (* one word: difference seen at observable points *)
  points : int array;      (* observable nets written by the current fault *)
  mutable npoints : int;
  diff : Words.t;          (* one word: the difference [site] computes *)
  (* [obs.{n}] is the detection word of flipping net [n] under the store
     [memo], valid while [obs_stamp.(n) = obs_epoch].  Holding [memo] keeps
     its identity from being reused by another store. *)
  mutable memo : Words.t;
  obs : Words.t;
  obs_stamp : int array;
  mutable obs_epoch : int;
  mutable faults_simulated : int;
  mutable gate_evals : int;
}

let csr n lists =
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun i l -> start.(i + 1) <- start.(i) + List.length l) lists;
  let flat = Array.make start.(n) 0 in
  Array.iteri (fun i l -> List.iteri (fun k x -> flat.(start.(i) + k) <- x) l) lists;
  (start, flat)

let prepare nl =
  let ls = Logic_sim.prepare nl in
  let gates = nl.N.gates in
  let ng = N.num_gates nl and nn = N.num_nets nl in
  let fanin_start, fanin =
    csr ng (Array.map (fun (g : N.gate) -> Array.to_list g.N.fanins) gates)
  in
  let is_seq = Array.map (fun (g : N.gate) -> g.N.cell.Cell.is_seq) gates in
  let sink_start, sink =
    csr nn
      (Array.map
         (fun (n : N.net) ->
           List.filter_map (fun (g, _) -> if is_seq.(g) then None else Some g) n.N.sinks)
         nl.N.nets)
  in
  let acts_by_cell = Hashtbl.create 32 in
  let acts =
    Array.map
      (fun (g : N.gate) ->
        let name = g.N.cell.Cell.name in
        match Hashtbl.find_opt acts_by_cell name with
        | Some a -> a
        | None ->
            let a =
              match Dfm_cellmodel.Udfm.for_cell name with
              | u ->
                  Array.of_list
                    (List.map
                       (fun (e : Dfm_cellmodel.Udfm.entry) -> e.Dfm_cellmodel.Udfm.program)
                       u.Dfm_cellmodel.Udfm.entries)
              | exception Not_found -> [||]
            in
            Hashtbl.add acts_by_cell name a;
            a)
      gates
  in
  let level = N.gate_levels nl in
  let nlevels = 1 + Array.fold_left max 0 level in
  let bucket = Array.make (nlevels + 1) 0 in
  Array.iteri (fun g l -> if not is_seq.(g) then bucket.(l + 1) <- bucket.(l + 1) + 1) level;
  for l = 1 to nlevels do
    bucket.(l) <- bucket.(l) + bucket.(l - 1)
  done;
  let observe = Array.make nn false in
  List.iter (fun (_, n) -> observe.(n) <- true) (Logic_sim.observes ls);
  {
    ls;
    fanin_start;
    fanin;
    gate_out = Array.map (fun (g : N.gate) -> g.N.fanout) gates;
    prog = Array.map (fun (g : N.gate) -> g.N.cell.Cell.prog) gates;
    acts;
    is_seq;
    level;
    sink_start;
    sink;
    observe;
    bucket;
    fill = Array.make nlevels 0;
    queue = Array.make (max 1 bucket.(nlevels)) 0;
    lo = max_int;
    hi = -1;
    faulty = Words.create nn;
    net_stamp = Array.make nn 0;
    gate_stamp = Array.make ng 0;
    epoch = 0;
    regs = W.create_regs ();
    detect = Words.create 1;
    points = Array.make nn 0;
    npoints = 0;
    diff = Words.create 1;
    memo = Words.create 0;
    obs = Words.create nn;
    obs_stamp = Array.make nn 0;
    obs_epoch = 0;
    faults_simulated = 0;
    gate_evals = 0;
  }

let sim t = t.ls

let publish_counts t =
  Dfm_obs.Metrics.incr ~by:t.faults_simulated m_faults;
  Dfm_obs.Metrics.incr ~by:t.gate_evals m_gate_evals;
  t.faults_simulated <- 0;
  t.gate_evals <- 0

(* ------------------------------------------------------------------ *)
(* Kernel                                                               *)
(* ------------------------------------------------------------------ *)

(* Words never cross a call: this compiler has no flambda and dune's dev
   profile builds with [-opaque], so an [int64] returned by a function that
   is not inlined is boxed.  Helpers that produce a word are
   [@inline always] or leave it in a store: [faulty], [regs], [detect],
   [diff] or [obs].  Net and pin indices taken from the fault are
   bounds-checked; the tables' own indices are not. *)

(* Net [n]'s word under the current fault. *)
let[@inline always] current t (good : Words.t) n =
  if Array.unsafe_get t.net_stamp n = t.epoch then A.unsafe_get t.faulty n
  else A.unsafe_get good n

(* Load gate [g]'s fault-free fanin words into the register file. *)
let load_good t (good : Words.t) g =
  let f0 = t.fanin_start.(g) in
  for j = f0 to t.fanin_start.(g + 1) - 1 do
    A.unsafe_set t.regs (j - f0) (A.unsafe_get good (Array.unsafe_get t.fanin j))
  done

(* [faulty.{n}] now holds net [n]'s word under the fault: stamp it and fold
   its difference into the detection word if [n] is observable.  A net set
   twice (a bridge seed whose driver is re-evaluated) folds both. *)
let mark t (good : Words.t) n =
  if t.net_stamp.(n) <> t.epoch then begin
    t.net_stamp.(n) <- t.epoch;
    if t.observe.(n) then begin
      t.points.(t.npoints) <- n;
      t.npoints <- t.npoints + 1
    end
  end;
  if t.observe.(n) then
    A.unsafe_set t.detect 0
      (Int64.logor (A.unsafe_get t.detect 0)
         (Int64.logxor (A.unsafe_get t.faulty n) (A.unsafe_get good n)))

let schedule_sinks t n =
  for i = t.sink_start.(n) to t.sink_start.(n + 1) - 1 do
    let g = t.sink.(i) in
    if t.gate_stamp.(g) <> t.epoch then begin
      t.gate_stamp.(g) <- t.epoch;
      let l = t.level.(g) in
      t.queue.(t.bucket.(l) + t.fill.(l)) <- g;
      t.fill.(l) <- t.fill.(l) + 1;
      if l < t.lo then t.lo <- l;
      if l > t.hi then t.hi <- l
    end
  done

(* Override net [n] with word [w] if it differs from the fault-free word. *)
let[@inline always] seed t (good : Words.t) n w =
  if w <> A.get good n then begin
    A.unsafe_set t.faulty n w;
    mark t good n;
    schedule_sinks t n
  end

(* Evaluate the queued gates level by level.  A gate's level exceeds that
   of every gate driving its fanins, so each gate runs once, after all of
   its queued fanins, and only queues gates of higher levels: the order is
   topological, and every gate reads final fanin words. *)
let propagate t (good : Words.t) =
  let l = ref t.lo in
  while !l <= t.hi do
    let lvl = !l in
    let base = t.bucket.(lvl) and count = t.fill.(lvl) in
    for i = base to base + count - 1 do
      let g = t.queue.(i) in
      let f0 = t.fanin_start.(g) in
      for j = f0 to t.fanin_start.(g + 1) - 1 do
        A.unsafe_set t.regs (j - f0) (current t good (Array.unsafe_get t.fanin j))
      done;
      let p = t.prog.(g) in
      W.exec p t.regs;
      let o = t.gate_out.(g) in
      let w = A.unsafe_get t.regs p.W.out in
      if w <> current t good o then begin
        A.unsafe_set t.faulty o w;
        mark t good o;
        schedule_sinks t o
      end
    done;
    t.fill.(lvl) <- 0;
    t.gate_evals <- t.gate_evals + count;
    incr l
  done

let forced_word = function F.Sa0 -> 0L | F.Sa1 -> -1L

(* The net on input [pin] of gate [g]. *)
let pin_net t g pin =
  if pin < 0 || pin >= t.fanin_start.(g + 1) - t.fanin_start.(g) then
    invalid_arg "Fault_sim: no such pin";
  t.fanin.(t.fanin_start.(g) + pin)

let transition_stuck = function
  | F.Slow_to_rise -> F.Sa0  (* frame 2: the site fails to rise *)
  | F.Slow_to_fall -> F.Sa1

(* Start a fault: only the queue bounds and the accumulators are reset. *)
let start t =
  t.epoch <- t.epoch + 1;
  t.npoints <- 0;
  t.lo <- max_int;
  t.hi <- -1;
  A.unsafe_set t.detect 0 0L

let check_store t (good : Words.t) =
  if A.dim good <> Array.length t.net_stamp then
    invalid_arg "Fault_sim: value store of another netlist"

(* The stuck-at component shared by stuck and transition faults: see
   [site]. *)
let stuck_site t good loc pol =
  match loc with
  | F.On_net n ->
      A.unsafe_set t.diff 0 (Int64.logxor (forced_word pol) (A.get good n));
      n
  | F.On_pin (g, pin) ->
      let d = pin_net t g pin in
      if t.is_seq.(g) then begin
        A.unsafe_set t.diff 0 (Int64.logxor (forced_word pol) (A.unsafe_get good d));
        -1
      end
      else begin
        (* The host gate re-evaluated with the pin forced. *)
        load_good t good g;
        A.unsafe_set t.regs pin (forced_word pol);
        let p = t.prog.(g) in
        W.exec p t.regs;
        let o = t.gate_out.(g) in
        A.unsafe_set t.diff 0 (Int64.logxor (A.unsafe_get t.regs p.W.out) (A.unsafe_get good o));
        o
      end

(* Where fault [f] acts, for every kind but a bridge: [site] leaves in
   [diff] the word of patterns on which one net takes the wrong value.  If
   that net feeds combinational logic it returns the net: a stuck-at or
   transition fault on a net, or a pin or internal fault of a combinational
   gate (the net is the gate's output).  For a fault hosted by a flop, which
   the flop captures wrongly, and for a bridge, it returns -1. *)
let site t good (f : F.t) =
  match f.F.kind with
  | F.Stuck (loc, pol) -> stuck_site t good loc pol
  | F.Transition (loc, tr) -> stuck_site t good loc (transition_stuck tr)
  | F.Bridge _ -> -1
  | F.Internal (g, entry) ->
      load_good t good g;
      let p = t.acts.(g).(entry) in
      W.exec p t.regs;
      A.unsafe_set t.diff 0 (A.unsafe_get t.regs p.W.out);
      if t.is_seq.(g) then -1 else t.gate_out.(g)

(* A flop captures [diff] on net [d]: the difference is observed directly on
   the scan path, and no other sink sees it. *)
let capture t good d =
  if A.unsafe_get t.diff 0 <> 0L then begin
    A.unsafe_set t.faulty d (Int64.logxor (A.unsafe_get good d) (A.unsafe_get t.diff 0));
    mark t good d
  end

(* Simulate fault [f] on the block whose fault-free words are [good], with
   its own propagation: on return [detect] holds the detection word and
   [points] the observable nets the fault wrote. *)
let inject t (good : Words.t) (f : F.t) =
  start t;
  let n = site t good f in
  if n >= 0 then begin
    seed t good n (Int64.logxor (A.unsafe_get good n) (A.unsafe_get t.diff 0));
    propagate t good
  end
  else
    match f.F.kind with
    | F.Bridge (n1, n2, k) ->
        let a = A.get good n1 and b = A.get good n2 in
        let r = match k with F.Wired_and -> Int64.logand a b | F.Wired_or -> Int64.logor a b in
        if r <> a || r <> b then begin
          seed t good n1 r;
          seed t good n2 r;
          propagate t good
        end
    | F.Stuck (F.On_pin (g, pin), _) | F.Transition (F.On_pin (g, pin), _) ->
        (* The flop captures the forced value on the pin's net. *)
        capture t good (pin_net t g pin)
    | F.Internal (g, _) ->
        (* Flop-internal defect: the captured value is corrupted whenever
           the defect is activated. *)
        capture t good t.fanin.(t.fanin_start.(g))
    | F.Stuck (F.On_net _, _) | F.Transition (F.On_net _, _) -> assert false

(* [obs.{n}]: the patterns on which flipping net [n] reaches an observable
   point under [good], propagated once per net and store.  For a fault with
   site [n], [diff land obs.{n}] is its detection word: the word programs
   are bitwise, so each of the 64 patterns is simulated on its own, and on
   each pattern of [diff] the faulty circuit is the one with [n] flipped. *)
let observability t (good : Words.t) n =
  if good != t.memo then begin
    t.memo <- good;
    t.obs_epoch <- t.obs_epoch + 1
  end;
  if t.obs_stamp.(n) <> t.obs_epoch then begin
    start t;
    seed t good n (Int64.lognot (A.unsafe_get good n));
    propagate t good;
    A.unsafe_set t.obs n (A.unsafe_get t.detect 0);
    t.obs_stamp.(n) <- t.obs_epoch
  end

let detect_word t ~good f =
  check_store t good;
  t.faults_simulated <- t.faults_simulated + 1;
  let n = site t good f in
  if n < 0 then begin
    inject t good f;
    A.unsafe_get t.detect 0
  end
  else if A.unsafe_get t.diff 0 = 0L then 0L
  else begin
    observability t good n;
    Int64.logand (A.unsafe_get t.diff 0) (A.unsafe_get t.obs n)
  end

let syndrome t ~good f =
  check_store t good;
  t.faults_simulated <- t.faults_simulated + 1;
  inject t good f;
  let points = ref [] in
  for i = t.npoints - 1 downto 0 do
    let n = t.points.(i) in
    let w = Int64.logxor (A.unsafe_get t.faulty n) (A.unsafe_get good n) in
    if w <> 0L then points := (n, w) :: !points
  done;
  List.sort compare !points

let init_word t ~good (f : F.t) =
  match f.F.kind with
  | F.Transition (loc, tr) ->
      let site =
        match loc with
        | F.On_net n -> A.get good n
        | F.On_pin (g, pin) -> A.get good (pin_net t g pin)
      in
      (* Frame 1 must put the site at the pre-transition value: 0 before a
         rise, 1 before a fall. *)
      (match tr with F.Slow_to_rise -> Int64.lognot site | F.Slow_to_fall -> site)
  | F.Stuck _ | F.Bridge _ | F.Internal _ -> -1L

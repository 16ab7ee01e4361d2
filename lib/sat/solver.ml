(* Persistent, incremental CDCL SAT solver.

   Internal literal encoding: variable v (1-based external) has index
   iv = v - 1; positive literal = 2*iv, negative literal = 2*iv + 1.
   Negation is [lxor 1].

   The solver is built for reuse across many solves of one growing CNF
   (the ATPG encodes thousands of per-fault detection queries into one
   instance, each guarded by an activation literal and enabled through
   [assumptions]):

   - every [solve] fully unwinds its trail before returning — assumptions
     never leak into the next query; a SAT answer is preserved in a model
     snapshot for [value];
   - learnt clauses persist across solves and are periodically reduced by
     LBD ("glue") and activity, with binary and low-LBD clauses kept;
   - [retire] switches an activation group off for good and pins its
     private variables at level 0;
   - conflict analysis deletes learnt clauses subsumed on the fly by the
     freshly learnt clause.

   Data layout.  Every clause lives in one growable [int array] arena and
   is named by the offset of its header:

     [size lsl 32 | lbd lsl 2 | deleted 2 | learnt 1] [activity] [lits...]

   The activity slot holds the bits of a non-negative float (learnt
   clauses only; the sign bit is always clear, so the bits fit an OCaml
   int).  Watch lists are per-literal int vectors of clause offsets;
   reasons are an int array (-1 for none); literal values are one byte
   per literal.  Watch order is part of the search: attaching pushes on
   top, a visit walks top-down, and the entries that stay end up in
   reverse visiting order.  The pinned effort counts in the test suite
   hold only under exactly this order.

   Deletion only sets the flag: a deleted clause's literals stay readable
   (an assumption-level reason may have been deleted by a reduction, and
   clause minimization still reads it) until [simplify] has cleared
   every reason at level 0.  Only then, and only when more than half the
   arena is dead, is the arena compacted in place.

   Invariants maintained by the search:
   - every clause of size >= 2 has its two watched literals in
     positions 0 and 1 of its literals;
   - a watched literal is moved only when it becomes false and no
     other non-false literal can replace it;
   - [trail] holds assigned literals in assignment order, with
     [trail_lim] marking decision-level boundaries.
   [check_invariants] makes the between-solve invariants executable. *)

type result = Sat | Unsat | Unknown

(* Clausal trace for certification (a DRUP-style derivation): every clause
   the solver admits is reported to the tracer — original clauses exactly as
   given (pre-normalization; the checker normalizes independently) and every
   learnt clause the moment it is derived.  Learnt units and the empty
   clause are traced too, so the trace alone lets an independent checker
   replay the refutation.  Deletions are not traced: a checker that keeps
   every clause remains sound, merely slower. *)
type trace_event = Trace_original of int list | Trace_learnt of int list

(* A copy of [a] grown to length [n], padded with [fill]. *)
let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Growable int vector. *)
type vec = { mutable data : int array; mutable len : int }

let vec_make n = { data = Array.make n 0; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then v.data <- grow v.data (max 4 (2 * v.len)) 0;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* Literal values. *)
let v_false = '\000'
let v_true = '\001'
let v_undef = '\002'

(* Clause header fields. *)
let learnt_flag = 1
let deleted_flag = 2
let hdr_size h = h lsr 32
let hdr_lbd h = (h lsr 2) land 0x3FFF_FFFF
let footprint h = (h lsr 32) + 2

let act_bits (a : float) = Int64.to_int (Int64.bits_of_float a)
let act_of_bits b = Int64.float_of_bits (Int64.logand (Int64.of_int b) Int64.max_int)

type t = {
  mutable nvars : int;
  mutable arena : int array;
  mutable arena_used : int;
  mutable arena_dead : int;             (* words held by deleted clauses *)
  clauses : vec;                        (* original clauses, oldest first *)
  mutable nclauses : int;
  learnts : vec;                        (* oldest first; may hold deleted entries *)
  mutable n_learnts : int;
  mutable watches : vec array;          (* indexed by internal literal *)
  mutable vals : Bytes.t;               (* per literal: v_false / v_true / v_undef *)
  mutable level : int array;
  mutable reason : int array;           (* clause offset, -1 for none *)
  mutable saved_phase : bool array;
  mutable activity : float array;
  mutable model : Bytes.t;              (* snapshot of [vals] at the last Sat *)
  mutable var_inc : float;
  mutable trail : int array;
  mutable trail_len : int;
  mutable trail_lim : int array;        (* trail length at each decision *)
  mutable dlevel : int;
  mutable qhead : int;
  (* Variable order: indexed binary heap over (activity, index). The linear
     scan this replaces was fine for throwaway per-query solvers but is
     O(nvars) per decision — ruinous once one persistent instance holds the
     variables of thousands of retired queries. *)
  mutable heap : int array;
  mutable heap_pos : int array;         (* var -> index in heap, -1 = absent *)
  mutable heap_len : int;
  mutable unsat : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable cla_inc : float;
  mutable max_learnts : int;
  mutable simplified_at : int;          (* trail length at the last level-0 sweep *)
  mutable tracer : (trace_event -> unit) option;
  counted : bool;                       (* flush effort into the process totals? *)
  (* Scratch, per instance because solvers run in parallel domains.  The
     mark arrays are stamped: an entry is set iff it equals the current
     generation, so clearing is one increment. *)
  mutable var_mark : int array;
  mutable var_gen : int;
  mutable lit_mark : int array;
  mutable lit_gen : int;
  mutable lvl_mark : int array;
  mutable lvl_gen : int;
  mutable wscratch : int array;         (* the watch vector being visited *)
  handled : vec;                        (* analyze: lower-level literals met *)
  learnt : vec;                         (* analyze: the learnt clause *)
  traversed : vec;                      (* analyze: learnt clauses resolved *)
}

let create ?(counted = true) () =
  {
    nvars = 0;
    arena = Array.make 1024 0;
    arena_used = 0;
    arena_dead = 0;
    clauses = vec_make 16;
    nclauses = 0;
    learnts = vec_make 16;
    n_learnts = 0;
    watches = Array.init 2 (fun _ -> vec_make 0);
    vals = Bytes.make 2 v_undef;
    level = Array.make 1 0;
    reason = Array.make 1 (-1);
    saved_phase = Array.make 1 false;
    activity = Array.make 1 0.0;
    model = Bytes.make 2 v_undef;
    var_inc = 1.0;
    trail = Array.make 1 0;
    trail_len = 0;
    trail_lim = Array.make 4 0;
    dlevel = 0;
    qhead = 0;
    heap = Array.make 1 0;
    heap_pos = Array.make 1 (-1);
    heap_len = 0;
    unsat = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    cla_inc = 1.0;
    max_learnts = 4000;
    simplified_at = 0;
    tracer = None;
    counted;
    var_mark = Array.make 1 0;
    var_gen = 0;
    lit_mark = Array.make 2 0;
    lit_gen = 0;
    lvl_mark = Array.make 5 0;
    lvl_gen = 0;
    wscratch = Array.make 16 0;
    handled = vec_make 16;
    learnt = vec_make 16;
    traversed = vec_make 16;
  }

let set_trace s tracer = s.tracer <- tracer

let trace s ev = match s.tracer with Some f -> f ev | None -> ()

let num_vars s = s.nvars
let num_clauses s = s.nclauses
let num_learnts s = s.n_learnts
let num_conflicts s = s.conflicts

(* Solves and conflicts carry the ambient tenant/job attribution so a live
   daemon can expose per-tenant SAT effort; the rest stay process-global. *)
let m_solves =
  Dfm_obs.Metrics.attributed_counter ~help:"SAT solve calls" "dfm_sat_solves_total"

let m_conflicts =
  Dfm_obs.Metrics.attributed_counter ~help:"CDCL conflicts across all solvers"
    "dfm_sat_conflicts_total"

let m_decisions =
  Dfm_obs.Metrics.counter ~help:"CDCL decisions across all solvers"
    "dfm_sat_decisions_total"

let m_propagations =
  Dfm_obs.Metrics.counter ~help:"Literals propagated across all solvers"
    "dfm_sat_propagations_total"

(* Process-wide effort totals are these counters, accumulated across every
   solver instance in every domain.  Per-solver counting uses plain mutable
   fields on the hot path; the deltas are flushed once per [solve] call.
   Counting is unconditional, so effort numbers are identical whether or
   not any exporter is attached. *)
let totals () =
  Dfm_obs.Metrics.
    ( counter_value (attr_base m_conflicts),
      counter_value m_decisions,
      counter_value m_propagations )

let m_learnts_kept =
  Dfm_obs.Metrics.counter ~help:"Learnt clauses kept by reduction sweeps"
    "dfm_sat_learnts_kept_total"

let m_learnts_dropped =
  Dfm_obs.Metrics.counter ~help:"Learnt clauses dropped by reduction sweeps"
    "dfm_sat_learnts_dropped_total"

let m_learnts_subsumed =
  Dfm_obs.Metrics.counter ~help:"Learnt clauses deleted by on-the-fly subsumption"
    "dfm_sat_learnts_subsumed_total"

let m_arena_collections =
  Dfm_obs.Metrics.counter ~help:"In-place compactions of the SAT clause arena"
    "dfm_sat_arena_collections_total"

(* ---- variable-order heap ------------------------------------------- *)

(* Total order: higher activity first, lower index breaking ties — the same
   choice the old linear scan made, so branching stays deterministic. *)
let heap_better s v w =
  s.activity.(v) > s.activity.(w) || (s.activity.(v) = s.activity.(w) && v < w)

let heap_swap s i j =
  let v = s.heap.(i) and w = s.heap.(j) in
  s.heap.(i) <- w;
  s.heap.(j) <- v;
  s.heap_pos.(w) <- i;
  s.heap_pos.(v) <- j

let rec heap_sift_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_better s s.heap.(i) s.heap.(parent) then begin
      heap_swap s i parent;
      heap_sift_up s parent
    end
  end

let rec heap_sift_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && heap_better s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_len && heap_better s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_sift_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_len >= Array.length s.heap then
      s.heap <- grow s.heap (max 2 (2 * Array.length s.heap)) 0;
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_sift_up s (s.heap_len - 1)
  end

let heap_pop s =
  if s.heap_len = 0 then -1
  else begin
    let v = s.heap.(0) in
    s.heap_len <- s.heap_len - 1;
    s.heap_pos.(v) <- -1;
    if s.heap_len > 0 then begin
      let w = s.heap.(s.heap_len) in
      s.heap.(0) <- w;
      s.heap_pos.(w) <- 0;
      heap_sift_down s 0
    end;
    v
  end

(* ---- variables ------------------------------------------------------ *)

let grow_arrays s n =
  let old = Array.length s.level in
  if n > old then begin
    let nn = max n (2 * old) in
    s.level <- grow s.level nn 0;
    s.reason <- grow s.reason nn (-1);
    s.saved_phase <- grow s.saved_phase nn false;
    s.activity <- grow s.activity nn 0.0;
    s.trail <- grow s.trail nn 0;
    s.heap_pos <- grow s.heap_pos nn (-1);
    s.var_mark <- grow s.var_mark nn 0;
    s.lit_mark <- grow s.lit_mark (2 * nn) 0;
    let grow_bytes b =
      let c = Bytes.make (2 * nn) v_undef in
      Bytes.blit b 0 c 0 (Bytes.length b);
      c
    in
    s.vals <- grow_bytes s.vals;
    s.model <- grow_bytes s.model;
    let oldw = Array.length s.watches in
    if 2 * nn > oldw then
      s.watches <-
        Array.init (2 * nn) (fun l -> if l < oldw then s.watches.(l) else vec_make 0)
  end

let ensure_vars s n =
  if n > s.nvars then begin
    grow_arrays s n;
    for v = s.nvars to n - 1 do
      heap_insert s v
    done;
    s.nvars <- n
  end

let new_var s =
  ensure_vars s (s.nvars + 1);
  s.nvars

let int_lit ext =
  let v = abs ext - 1 in
  if ext > 0 then 2 * v else (2 * v) + 1

let ext_of_int l =
  let v = (l / 2) + 1 in
  if l land 1 = 0 then v else -v

let lit_var l = l lsr 1
let lit_neg l = l lxor 1
let lvalue s l = Bytes.get s.vals l

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    (* Uniform rescale preserves the heap order. *)
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_sift_up s s.heap_pos.(v)

let decay_activity s = s.var_inc <- s.var_inc /. 0.95

(* Focus the branching heuristic on a set of variables (1-based external
   ids) by bumping them ahead of everything else.  Used by incremental
   sessions to point the search at the clauses a new query just added:
   without it VSIDS still reflects the previous queries' hot spots and the
   solver wanders the shared CNF before touching the new cone.  Purely
   heuristic — results are unaffected, only the branching order. *)
let focus_vars s ext_vars =
  List.iter
    (fun ev ->
      let v = ev - 1 in
      if v >= 0 && v < s.nvars then bump_var s v)
    ext_vars;
  decay_activity s

let enqueue s l reason =
  let v = lit_var l in
  Bytes.set s.vals l v_true;
  Bytes.set s.vals (lit_neg l) v_false;
  s.level.(v) <- s.dlevel;
  s.reason.(v) <- reason;
  s.saved_phase.(v) <- l land 1 = 0;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* ---- clause arena --------------------------------------------------- *)

(* Reserve a clause of [n] literals; the caller writes the literals at
   offsets [c + 2 ..]. *)
let new_clause s ~learnt ~lbd n =
  let need = n + 2 in
  if s.arena_used + need > Array.length s.arena then
    s.arena <- grow s.arena (max (s.arena_used + need) (2 * Array.length s.arena)) 0;
  let c = s.arena_used in
  s.arena.(c) <- (n lsl 32) lor (lbd lsl 2) lor (if learnt then learnt_flag else 0);
  s.arena.(c + 1) <- 0;
  s.arena_used <- c + need;
  c

let is_deleted s c = s.arena.(c) land deleted_flag <> 0

let delete_clause s c =
  let h = s.arena.(c) in
  s.arena.(c) <- h lor deleted_flag;
  s.arena_dead <- s.arena_dead + footprint h

let clause_satisfied s c =
  let a = s.arena in
  let j = ref (c + 2) and stop = c + 2 + hdr_size a.(c) in
  while !j < stop && lvalue s a.(!j) <> v_true do
    incr j
  done;
  !j < stop

(* Watch lists are indexed by the watched literal itself and are visited
   by [propagate] when that literal becomes false. *)
let attach_clause s c =
  vec_push s.watches.(s.arena.(c + 2)) c;
  vec_push s.watches.(s.arena.(c + 3)) c

(* Compact the arena in place once [simplify] has swept both clause
   vectors (so they hold exactly the live clauses, in arena order) and
   cleared every reason: first write each live clause's new offset into its
   activity slot, then remap the vectors and watch lists, then slide the
   clauses down.  Learnt activities are saved first because the slot
   carries the forwarding offset in between. *)
let collect s =
  let a = s.arena in
  let acts = Array.init s.learnts.len (fun k -> a.(s.learnts.data.(k) + 1)) in
  let fresh = ref 0 and o = ref 0 in
  while !o < s.arena_used do
    let h = a.(!o) in
    if h land deleted_flag = 0 then begin
      a.(!o + 1) <- !fresh;
      fresh := !fresh + footprint h
    end;
    o := !o + footprint h
  done;
  let remap v =
    for i = 0 to v.len - 1 do
      v.data.(i) <- a.(v.data.(i) + 1)
    done
  in
  remap s.clauses;
  remap s.learnts;
  Array.iter
    (fun w ->
      let j = ref 0 in
      for i = 0 to w.len - 1 do
        let c = w.data.(i) in
        if a.(c) land deleted_flag = 0 then begin
          w.data.(!j) <- a.(c + 1);
          incr j
        end
      done;
      w.len <- !j)
    s.watches;
  let k = ref 0 in
  o := 0;
  while !o < s.arena_used do
    let h = a.(!o) in
    if h land deleted_flag = 0 then begin
      let dst = a.(!o + 1) in
      a.(dst) <- h;
      if h land learnt_flag <> 0 then begin
        a.(dst + 1) <- acts.(!k);
        incr k
      end
      else a.(dst + 1) <- 0;
      Array.blit a (!o + 2) a (dst + 2) (hdr_size h)
    end;
    o := !o + footprint h
  done;
  assert (!k = Array.length acts);
  s.arena_used <- !fresh;
  s.arena_dead <- 0;
  Dfm_obs.Metrics.incr m_arena_collections

(* ---- search --------------------------------------------------------- *)

(* Propagate all pending assignments; return a conflicting clause, or -1.
   The visited watch vector is copied to scratch and refilled from the
   bottom: entries that stay (satisfied, unit and conflicting clauses, and
   everything after a conflict) are written back in visiting order, so
   they end up in reverse; deleted clauses met on the way are dropped.  The
   unchecked accesses read clause offsets from watch vectors, literals
   inside those clauses and values of those literals, all in range by the
   arena and watch invariants; the refill never outgrows the copy. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let falsified = lit_neg l in
    let wv = s.watches.(falsified) in
    let n = wv.len in
    if Array.length s.wscratch < n then s.wscratch <- Array.make (2 * n) 0;
    let ws = s.wscratch and a = s.arena and vals = s.vals and d = wv.data in
    for j = 0 to n - 1 do
      Array.unsafe_set ws j (Array.unsafe_get d j)
    done;
    let kept = ref 0 in
    let i = ref (n - 1) in
    while !i >= 0 do
      let c = Array.unsafe_get ws !i in
      decr i;
      let h = Array.unsafe_get a c in
      if h land deleted_flag = 0 then begin
        (* Ensure the falsified literal is at position 1. *)
        let p = c + 2 in
        if Array.unsafe_get a p = falsified then begin
          Array.unsafe_set a p (Array.unsafe_get a (p + 1));
          Array.unsafe_set a (p + 1) falsified
        end;
        let first = Array.unsafe_get a p in
        let vf = Bytes.unsafe_get vals first in
        if vf = v_true then begin
          (* Clause satisfied: keep watching. *)
          Array.unsafe_set d !kept c;
          incr kept
        end
        else begin
          (* Look for a new watch. *)
          let stop = p + hdr_size h in
          let k = ref (p + 2) in
          while !k < stop && Bytes.unsafe_get vals (Array.unsafe_get a !k) = v_false do
            incr k
          done;
          if !k < stop then begin
            let w = Array.unsafe_get a !k in
            Array.unsafe_set a (p + 1) w;
            Array.unsafe_set a !k falsified;
            vec_push s.watches.(w) c
          end
          else begin
            (* No new watch: clause is unit or conflicting. *)
            Array.unsafe_set d !kept c;
            incr kept;
            if vf = v_false then begin
              confl := c;
              (* Keep the remaining watchers untouched. *)
              while !i >= 0 do
                Array.unsafe_set d !kept (Array.unsafe_get ws !i);
                incr kept;
                decr i
              done
            end
            else enqueue s first c
          end
        end
      end
    done;
    wv.len <- !kept
  done;
  !confl

let new_decision_level s =
  s.decisions <- s.decisions + 1;
  if s.dlevel >= Array.length s.trail_lim then begin
    let n = 2 * Array.length s.trail_lim in
    s.trail_lim <- grow s.trail_lim n 0;
    s.lvl_mark <- grow s.lvl_mark (n + 1) 0
  end;
  s.trail_lim.(s.dlevel) <- s.trail_len;
  s.dlevel <- s.dlevel + 1

let backtrack s target_level =
  if s.dlevel > target_level then begin
    let lim = s.trail_lim.(target_level) in
    for i = s.trail_len - 1 downto lim do
      let l = s.trail.(i) in
      let v = lit_var l in
      Bytes.set s.vals l v_undef;
      Bytes.set s.vals (lit_neg l) v_undef;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_len <- lim;
    s.dlevel <- target_level
  end;
  s.qhead <- s.trail_len

let bump_clause s c =
  let a = s.arena in
  let act = act_of_bits a.(c + 1) +. s.cla_inc in
  a.(c + 1) <- act_bits act;
  if act > 1e20 then begin
    for i = 0 to s.learnts.len - 1 do
      let d = s.learnts.data.(i) in
      a.(d + 1) <- act_bits (act_of_bits a.(d + 1) *. 1e-20)
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* Literal block distance of the learnt clause in [s.learnt]: the number of
   distinct decision levels among its literals.  Low-LBD ("glue") clauses
   are the ones worth keeping across solves. *)
let compute_lbd s =
  s.lvl_gen <- s.lvl_gen + 1;
  let gen = s.lvl_gen and n = ref 0 in
  for i = 0 to s.learnt.len - 1 do
    let lv = s.level.(lit_var s.learnt.data.(i)) in
    if lv > 0 && s.lvl_mark.(lv) <> gen then begin
      s.lvl_mark.(lv) <- gen;
      incr n
    end
  done;
  max 1 !n

(* Conflict-clause minimization (local self-subsumption): a literal whose
   reason clause's other literals all lie in the learned clause (marked
   [gen] in [var_mark]) or at level 0 is implied by the rest. *)
let removable s gen l =
  let v = lit_var l in
  let r = s.reason.(v) in
  r >= 0
  &&
  let a = s.arena in
  let j = ref (r + 2) and stop = r + 2 + hdr_size a.(r) in
  while
    !j < stop
    &&
    let qv = lit_var a.(!j) in
    qv = v || s.var_mark.(qv) = gen || s.level.(qv) = 0
  do
    incr j
  done;
  !j >= stop

(* First-UIP conflict analysis.  Leaves the learned clause in [s.learnt]
   (asserting literal first, then the other literals latest-met first),
   the learnt clauses resolved against — the candidates for on-the-fly
   subsumption — in [s.traversed], and returns the backtrack level. *)
let analyze s confl =
  s.var_gen <- s.var_gen + 1;
  let gen = s.var_gen and seen = s.var_mark and a = s.arena in
  let handled = s.handled and cur_level = s.dlevel in
  handled.len <- 0;
  s.traversed.len <- 0;
  let counter = ref 0 and idx = ref (s.trail_len - 1) and p = ref (-1) in
  let c = ref confl and continue = ref true in
  while !continue do
    let cl = !c in
    let h = a.(cl) in
    if h land learnt_flag <> 0 then begin
      bump_clause s cl;
      vec_push s.traversed cl
    end;
    for j = cl + 2 to cl + 1 + hdr_size h do
      let q = a.(j) in
      let v = lit_var q in
      if q <> !p && seen.(v) <> gen && s.level.(v) > 0 then begin
        seen.(v) <- gen;
        bump_var s v;
        if s.level.(v) = cur_level then incr counter else vec_push handled q
      end
    done;
    (* Find the next seen literal on the trail. *)
    while seen.(lit_var s.trail.(!idx)) <> gen do
      decr idx
    done;
    p := s.trail.(!idx);
    let v = lit_var !p in
    seen.(v) <- 0;
    decr counter;
    decr idx;
    if !counter = 0 then continue := false
    else begin
      c := s.reason.(v);
      assert (!c >= 0)
    end
  done;
  (* Every current-level variable is unmarked again, so [seen] now marks
     exactly the variables of [handled]: the minimization's membership set. *)
  let out = s.learnt in
  out.len <- 0;
  vec_push out (lit_neg !p);
  let blevel = ref 0 in
  for i = handled.len - 1 downto 0 do
    let l = handled.data.(i) in
    if not (removable s gen l) then begin
      vec_push out l;
      blevel := max !blevel s.level.(lit_var l)
    end
  done;
  !blevel

(* On-the-fly subsumption: a freshly learnt clause (in [s.learnt]) that is
   a strict subset of a learnt clause it was resolved against makes the
   larger clause redundant.  Deleting it is sound — both are consequences
   of the CNF and the smaller one is logically stronger.  A traversed
   clause is the conflict or the reason of a conflict-level literal, and
   the backtrack before this call unassigned all of those, so it is the
   reason of no surviving assignment.  The deleted entry stays in
   [learnts] until the next reduction or sweep. *)
let subsume_on_the_fly s =
  s.lit_gen <- s.lit_gen + 1;
  let gen = s.lit_gen and nl = s.learnt.len and a = s.arena in
  for i = 0 to nl - 1 do
    s.lit_mark.(s.learnt.data.(i)) <- gen
  done;
  let dropped = ref 0 in
  for i = 0 to s.traversed.len - 1 do
    let c = s.traversed.data.(i) in
    let h = a.(c) in
    if h land deleted_flag = 0 && hdr_size h > nl then begin
      let hits = ref 0 in
      for j = c + 2 to c + 1 + hdr_size h do
        if s.lit_mark.(a.(j)) = gen then incr hits
      done;
      if !hits = nl then begin
        delete_clause s c;
        s.n_learnts <- s.n_learnts - 1;
        incr dropped
      end
    end
  done;
  if !dropped > 0 then Dfm_obs.Metrics.incr ~by:!dropped m_learnts_subsumed

let add_clause s ext_lits =
  if not s.unsat then begin
    trace s (Trace_original ext_lits);
    (* Incremental use: clauses may arrive between solves; strip any leftover
       search state first so level-0 simplification below stays sound. *)
    if s.dlevel > 0 then backtrack s 0;
    List.iter (fun l -> ensure_vars s (abs l)) ext_lits;
    (* Normalize: dedup, drop tautologies. *)
    let lits = List.sort_uniq compare (List.map int_lit ext_lits) in
    let taut = List.exists (fun l -> List.mem (lit_neg l) lits) lits in
    (* Clauses are only ever added at decision level 0, so the current
       assignment is permanent: literals false now are false forever and can
       be dropped; a literal true now satisfies the clause for good. *)
    let satisfied = List.exists (fun l -> lvalue s l = v_true) lits in
    let lits = List.filter (fun l -> lvalue s l <> v_false) lits in
    if not (taut || satisfied) then
      match lits with
      | [] -> s.unsat <- true
      | [ l ] ->
          (* Unit at level 0: apply immediately if possible. *)
          let v = lvalue s l in
          if v = v_false then s.unsat <- true
          else if v = v_undef then begin
            enqueue s l (-1);
            if propagate s >= 0 then begin
              s.unsat <- true;
              (* the instance is dead: mark the queue drained so the
                 between-solve invariants keep holding *)
              s.qhead <- s.trail_len
            end
          end
      | _ ->
          let c = new_clause s ~learnt:false ~lbd:0 (List.length lits) in
          List.iteri (fun i l -> s.arena.(c + 2 + i) <- l) lits;
          vec_push s.clauses c;
          s.nclauses <- s.nclauses + 1;
          attach_clause s c
  end

let pick_branch_var s =
  let v = ref (heap_pop s) in
  while !v >= 0 && lvalue s (2 * !v) <> v_undef do
    v := heap_pop s
  done;
  !v

(* Keep the entries of a clause vector satisfying [keep], in order. *)
let filter_vec v keep =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let c = v.data.(i) in
    if keep c then begin
      v.data.(!j) <- c;
      incr j
    end
  done;
  v.len <- !j

(* Reduce the learnt store: keep binaries and glue clauses (LBD <= 2); of
   the rest, delete the worse half by (LBD, activity), ties going to the
   newest first.  Called only when the trail is at the assumption level.

   Clauses that are the reason of an assumption-level literal are not
   protected (MiniSat's [locked]): analysis may still read such a clause's
   literals, which is sound because a deleted clause keeps its storage
   until [simplify] has cleared every reason at level 0. *)
let reduce_learnts s =
  let a = s.arena and lv = s.learnts in
  let buf = Array.make lv.len 0 and n = ref 0 in
  for i = lv.len - 1 downto 0 do
    let c = lv.data.(i) in
    let h = a.(c) in
    if h land deleted_flag = 0 && hdr_lbd h > 2 && hdr_size h > 2 then begin
      buf.(!n) <- c;
      incr n
    end
  done;
  let victims = Array.sub buf 0 !n in
  Array.stable_sort
    (fun x y ->
      let lx = hdr_lbd a.(x) and ly = hdr_lbd a.(y) in
      if lx <> ly then compare ly lx
      else compare (act_of_bits a.(x + 1)) (act_of_bits a.(y + 1)))
    victims;
  let n = !n in
  for i = 0 to (n / 2) - 1 do
    delete_clause s victims.(i)
  done;
  filter_vec lv (fun c -> not (is_deleted s c));
  Dfm_obs.Metrics.incr ~by:lv.len m_learnts_kept;
  Dfm_obs.Metrics.incr ~by:(n / 2) m_learnts_dropped;
  s.n_learnts <- lv.len

(* Level-0 simplification (MiniSat's [simplify]): a clause satisfied by the
   permanent level-0 assignment can never constrain the search again, but
   left attached it is re-visited by [propagate] every time one of its
   watched literals is falsified — for the rest of the session's life.
   Retiring an activation group satisfies its whole guarded cone at once,
   so a long incremental session without this sweep drags an ever-growing
   tail of dead cones through every propagation.  Runs only when the trail
   has grown since the last sweep (new permanent facts).  Reasons of
   level-0 assignments are cleared first: permanent facts need no
   justification, which makes deleting their reason clauses safe — and,
   with no reason left pointing into the arena, makes compacting it safe. *)
let simplify s =
  if (not s.unsat) && s.dlevel = 0 && s.qhead = s.trail_len && s.trail_len > s.simplified_at
  then begin
    for i = 0 to s.trail_len - 1 do
      s.reason.(lit_var s.trail.(i)) <- -1
    done;
    let sweep v =
      let removed = ref 0 in
      filter_vec v (fun c ->
          if is_deleted s c then false
          else if clause_satisfied s c then begin
            delete_clause s c;
            incr removed;
            false
          end
          else true);
      !removed
    in
    s.nclauses <- s.nclauses - sweep s.clauses;
    let nl = sweep s.learnts in
    s.n_learnts <- s.n_learnts - nl;
    Dfm_obs.Metrics.incr ~by:nl m_learnts_dropped;
    s.simplified_at <- s.trail_len;
    if 2 * s.arena_dead > s.arena_used then collect s
  end

(* Luby sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

let learnt_exts s = List.init s.learnt.len (fun i -> ext_of_int s.learnt.data.(i))

(* Store the learnt clause of [analyze] and assert its first literal.
   Returns [false] when the clause proves the instance unsatisfiable. *)
let learn s ~blevel ~lbd =
  let out = s.learnt in
  let l0 = out.data.(0) in
  if out.len = 1 then begin
    if blevel > 0 then enqueue s l0 (-1)
    else begin
      let v = lvalue s l0 in
      if v = v_undef then enqueue s l0 (-1)
      else if v = v_false then s.unsat <- true
    end
  end
  else begin
    (* Put a highest-level "other" literal in position 1 so the watch
       invariant holds after backtracking. *)
    let d = out.data in
    let hi = ref 1 in
    for k = 2 to out.len - 1 do
      if s.level.(lit_var d.(k)) > s.level.(lit_var d.(!hi)) then hi := k
    done;
    let tmp = d.(1) in
    d.(1) <- d.(!hi);
    d.(!hi) <- tmp;
    let c = new_clause s ~learnt:true ~lbd out.len in
    Array.blit d 0 s.arena (c + 2) out.len;
    s.arena.(c + 1) <- act_bits s.cla_inc;
    vec_push s.learnts c;
    s.n_learnts <- s.n_learnts + 1;
    attach_clause s c;
    enqueue s l0 c;
    subsume_on_the_fly s
  end;
  not s.unsat

let solve_search ?(assumptions = []) ?(max_conflicts = max_int) s =
  if s.unsat then Unsat
  else begin
    List.iter (fun l -> ensure_vars s (abs l)) assumptions;
    let assumption_lits = Array.of_list (List.map int_lit assumptions) in
    let n_assumptions = Array.length assumption_lits in
    backtrack s 0;
    if propagate s >= 0 then begin
      s.unsat <- true;
      s.qhead <- s.trail_len (* dead instance: queue counts as drained *)
    end;
    if s.unsat then Unsat
    else begin
      simplify s;
      let result = ref Unknown in
      let done_ = ref false in
      let restart_count = ref 0 in
      let conflicts_at_start = s.conflicts in
      let conflict_budget_for_restart = ref (100 * luby 1) in
      let conflicts_this_restart = ref 0 in
      while not !done_ do
        let confl = propagate s in
        if confl >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          incr conflicts_this_restart;
          if s.dlevel <= n_assumptions then begin
            (* Conflict within (or below) the assumption levels: the
               assumptions themselves are contradicted. *)
            if s.dlevel = 0 then s.unsat <- true;
            result := Unsat;
            done_ := true
          end
          else if s.conflicts - conflicts_at_start >= max_conflicts then begin
            result := Unknown;
            done_ := true
          end
          else begin
            let blevel = analyze s confl in
            let lbd = compute_lbd s in
            (* Every first-UIP learnt clause (minimization included) is a
               resolvent of database clauses only: [analyze] runs strictly
               above the assumption levels, and assumption literals —
               having no reason clause — are never resolved away.  The
               trace is therefore a valid derivation from the original
               clauses alone, independent of this query's assumptions. *)
            (match s.tracer with Some f -> f (Trace_learnt (learnt_exts s)) | None -> ());
            let blevel = max blevel n_assumptions in
            backtrack s blevel;
            if not (learn s ~blevel ~lbd) then begin
              result := Unsat;
              done_ := true
            end;
            decay_activity s;
            s.cla_inc <- s.cla_inc /. 0.999
          end
        end
        else begin
          if !conflicts_this_restart >= !conflict_budget_for_restart then begin
            (* Restart. *)
            conflicts_this_restart := 0;
            incr restart_count;
            conflict_budget_for_restart := 100 * luby (!restart_count + 1);
            backtrack s n_assumptions;
            if s.n_learnts > s.max_learnts then begin
              reduce_learnts s;
              s.max_learnts <- s.max_learnts + (s.max_learnts / 10)
            end
          end;
          (* Place assumptions first. *)
          if s.dlevel < n_assumptions then begin
            let l = assumption_lits.(s.dlevel) in
            let v = lvalue s l in
            if v = v_true then new_decision_level s (* already true: dummy level *)
            else if v = v_false then begin
              (* The assumption is already falsified by the others (or by
                 the CNF). *)
              result := Unsat;
              done_ := true
            end
            else begin
              new_decision_level s;
              enqueue s l (-1)
            end
          end
          else begin
            let v = pick_branch_var s in
            if v < 0 then begin
              (* Total assignment: snapshot it before unwinding. *)
              Bytes.blit s.vals 0 s.model 0 (2 * s.nvars);
              result := Sat;
              done_ := true
            end
            else begin
              new_decision_level s;
              let l = if s.saved_phase.(v) then 2 * v else (2 * v) + 1 in
              enqueue s l (-1)
            end
          end
        end
      done;
      (* Fully unwind: assumptions (and all search state above level 0)
         never survive a solve.  SAT answers live on in [model]. *)
      backtrack s 0;
      !result
    end
  end

let result_to_string = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

let solve ?assumptions ?max_conflicts s =
  Dfm_util.Failpoint.hit "sat.solve";
  let c0 = s.conflicts and d0 = s.decisions and p0 = s.propagations in
  let flush () =
    (* Verification-only instances (certificate re-checks) are uncounted:
       their effort must not reach the process totals, which feed campaign
       results and checkpoint records — certified runs stay bit-identical
       to uncertified ones. *)
    if s.counted then begin
      let dc = s.conflicts - c0 and dd = s.decisions - d0 and dp = s.propagations - p0 in
      Dfm_obs.Metrics.incr_attr m_solves;
      Dfm_obs.Metrics.incr_attr ~by:dc m_conflicts;
      Dfm_obs.Metrics.incr ~by:dd m_decisions;
      Dfm_obs.Metrics.incr ~by:dp m_propagations
    end
  in
  Dfm_obs.Span.with_ "sat.solve" (fun () ->
      let r =
        Fun.protect ~finally:flush (fun () -> solve_search ?assumptions ?max_conflicts s)
      in
      if Dfm_obs.Span.enabled () then begin
        Dfm_obs.Span.note "result" (result_to_string r);
        Dfm_obs.Span.note "conflicts" (string_of_int (s.conflicts - c0))
      end;
      r)

let value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver.value";
  Bytes.get s.model (2 * (v - 1)) = v_true

let lit_value s l = if l > 0 then value s l else not (value s (-l))

let root_value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver.root_value";
  let x = lvalue s (2 * (v - 1)) in
  if x = v_undef || s.level.(v - 1) > 0 then None else Some (x = v_true)

(* Retiring an activation group adds the unit [¬act], permanently
   satisfying its guarded clauses, and pins the group's still-free private
   ("local") variables at level 0 so branching never wastes decisions on
   unconstrained garbage.  Pinning is sound: with [act] false the locals
   are unconstrained by construction (every clause mentioning them carries
   [¬act]), so fixing them cannot change the satisfiability of anything
   that remains.  A local already fixed at level 0 — e.g. through a learnt
   unit resolving against [¬act] — is left alone. *)
let retire s ~act ~locals =
  add_clause s [ -act ];
  List.iter (fun v -> if root_value s v = None then add_clause s [ v ]) locals

let clause_exts s c = List.init (hdr_size s.arena.(c)) (fun i -> ext_of_int s.arena.(c + 2 + i))

(* Newest first. *)
let learnt_clauses s =
  let out = ref [] in
  for i = 0 to s.learnts.len - 1 do
    let c = s.learnts.data.(i) in
    if not (is_deleted s c) then out := clause_exts s c :: !out
  done;
  !out

(* Between-solve invariant audit; raises [Failure] with a description.
   Checks that the trail is fully unwound, that value/trail/level state is
   mutually consistent, that the arena parses into clauses whose deleted
   footprint is the dead-word count, that every clause-vector and watch
   entry names a clause header, and that every live clause of size >= 2 is
   watched on exactly its first two literals. *)
let check_invariants s =
  let fail fmt = Printf.ksprintf failwith fmt in
  if s.dlevel <> 0 then fail "check_invariants: decision level %d" s.dlevel;
  if s.qhead <> s.trail_len then
    fail "check_invariants: qhead %d != trail length %d" s.qhead s.trail_len;
  (* Trail vs values. *)
  let on_trail = Array.make (max 1 s.nvars) false in
  for i = 0 to s.trail_len - 1 do
    let l = s.trail.(i) in
    let v = lit_var l in
    if on_trail.(v) then fail "check_invariants: var %d twice on trail" (v + 1);
    on_trail.(v) <- true;
    if lvalue s l <> v_true then fail "check_invariants: trail literal %d not true" (ext_of_int l);
    if s.level.(v) <> 0 then
      fail "check_invariants: var %d at level %d after unwind" (v + 1) s.level.(v)
  done;
  for v = 0 to s.nvars - 1 do
    let p = lvalue s (2 * v) and n = lvalue s ((2 * v) + 1) in
    if not ((p = v_undef && n = v_undef) || (p <> v_undef && n <> v_undef && p <> n)) then
      fail "check_invariants: var %d has inconsistent literal values" (v + 1);
    if p <> v_undef && not on_trail.(v) then
      fail "check_invariants: var %d assigned but not on trail" (v + 1)
  done;
  (* Arena: the clauses tile [0, arena_used) and the deleted ones account
     for exactly the dead words. *)
  let a = s.arena in
  let is_hdr = Array.make (s.arena_used + 1) false in
  let dead = ref 0 and o = ref 0 in
  while !o < s.arena_used do
    let h = a.(!o) in
    if !o + footprint h > s.arena_used then
      fail "check_invariants: clause @%d overruns the arena" !o;
    is_hdr.(!o) <- true;
    if h land deleted_flag <> 0 then dead := !dead + footprint h;
    o := !o + footprint h
  done;
  if !dead <> s.arena_dead then
    fail "check_invariants: %d dead arena words counted, %d in deleted clauses" s.arena_dead
      !dead;
  let check_entry what c =
    if c < 0 || c >= s.arena_used || not is_hdr.(c) then
      fail "check_invariants: %s entry %d is not a clause header" what c
  in
  (* Clause vectors: originals are live; together they hold every live
     clause exactly once. *)
  let listed = Array.make (s.arena_used + 1) 0 in
  let live_learnts = ref 0 in
  let scan what v ~learnt =
    for i = 0 to v.len - 1 do
      let c = v.data.(i) in
      check_entry what c;
      if (a.(c) land learnt_flag <> 0) <> learnt then
        fail "check_invariants: clause @%d in the wrong vector" c;
      if not (is_deleted s c) then begin
        listed.(c) <- listed.(c) + 1;
        if learnt then incr live_learnts
      end
      else if not learnt then fail "check_invariants: deleted original clause @%d listed" c
    done
  in
  scan "clause-vector" s.clauses ~learnt:false;
  scan "learnt-vector" s.learnts ~learnt:true;
  (* Watch lists: every entry watches one of the clause's first two
     literals; every live clause is watched exactly twice. *)
  let watch_count = Array.make (s.arena_used + 1) 0 in
  Array.iteri
    (fun l w ->
      for i = 0 to w.len - 1 do
        let c = w.data.(i) in
        check_entry "watch" c;
        if not (is_deleted s c) then begin
          if hdr_size a.(c) < 2 then
            fail "check_invariants: watched clause @%d of size %d" c (hdr_size a.(c));
          if a.(c + 2) <> l && a.(c + 3) <> l then
            fail "check_invariants: clause @%d watched on literal %d not in first two" c
              (ext_of_int l);
          watch_count.(c) <- watch_count.(c) + 1
        end
      done)
    s.watches;
  o := 0;
  while !o < s.arena_used do
    if not (is_deleted s !o) then begin
      if listed.(!o) <> 1 then
        fail "check_invariants: live clause @%d listed %d times" !o listed.(!o);
      if watch_count.(!o) <> 2 then
        fail "check_invariants: clause @%d has %d watch entries" !o watch_count.(!o)
    end;
    o := !o + footprint a.(!o)
  done;
  (* Bookkeeping. *)
  if !live_learnts <> s.n_learnts then
    fail "check_invariants: n_learnts %d but %d live learnt clauses" s.n_learnts !live_learnts;
  if s.clauses.len <> s.nclauses then
    fail "check_invariants: nclauses %d but %d original clauses" s.nclauses s.clauses.len

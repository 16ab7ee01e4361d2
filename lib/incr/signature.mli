(** Canonical cone signatures: a 64-bit structural hash of everything a
    fault's classification verdict can depend on.

    The ATPG's verdict for a fault is a pure function of the *detection
    miter* [Dfm_atpg.Encode] builds: the fault-model activation condition,
    the transitive fanout of the fault site through combinational gates
    (with its exact sharing/reconvergence structure), the fault-free
    functions of every side input of that fanout region, and which of the
    reached nets are observable.  Two faults whose miters are structurally
    equivalent are satisfiability-equivalent, so a complete solver gives
    them the same verdict.  The signature captures that equivalence class
    in two parts:

    - a forward levelized sweep computing a Merkle-style {e support hash}
      per net, shared by every fault on the netlist: cell truth table plus
      fanin hashes in pin order; primary inputs, constants and flip-flop Q
      nets are the free sources, labeled by net name.  Only the {e term}
      matters here — two good-side cones that denote the same expression
      over the same named sources compute the same Boolean function, so
      physical sharing on the good side is irrelevant;

    - a per-fault {e cone hash} over the fault's combinational fanout
      region, memoized per seed-net set within a sweep.  Here sharing is
      {e not} abstracted away: each cone net gets an index in cone-topo
      order and sinks refer to faulty fanins by index, so a reconvergent
      cone (the fault reaches a gate on two pins) never collides with
      duplicated logic (only one pin faulty) — those genuinely differ in
      detectability.  Side inputs are labeled by their support hash;
      observable cone nets contribute an unordered (clause-like) multiset
      of (cone index, support) pairs.

    [of_fault] mixes the per-model ingredients — the same ones
    [Encode.check_incr] consumes, e.g. activation minterm {e contents} rather
    than UDFM entry indices — with {!params}.

    What is deliberately {e not} in the hash: gate/net ids and internal net
    names (signatures survive [Netlist.replace] renumbering), cell {e
    names} (cells with equal truth tables — e.g. drive-strength variants —
    are interchangeable for detection), placement/routing/timing, and the
    campaign's random seed and pattern-block count (random simulation can
    only discover a test the SAT phase would also find, never change a
    verdict).

    Caveat, stated for honesty and enforced by the store's policy of never
    caching [Aborted]: under a {e bounded} [max_conflicts] budget the
    resolved/Aborted boundary can depend on CNF variable ordering, which
    the signature abstracts away.  [max_conflicts] is part of {!params}, so
    bounded-budget entries never leak into runs with a different budget; at
    the default (unbounded, complete) setting the verdict is exactly
    determined by the signature. *)

type params = {
  semantics_version : int;
      (** bumped whenever detection semantics change (fault models, UDFM
          characterization, encoder shape); distinct versions never share
          cache entries *)
  max_conflicts : int option;
}

val default_params : ?max_conflicts:int -> unit -> params
(** [semantics_version] pinned to the current semantics version. *)

type sweep
(** Per-netlist signature state: the support hash table plus the topology
    (topo positions, sink lists, observability bits) that per-fault cone
    hashes are computed from, and the cone-hash memo. *)

val sweep : Dfm_netlist.Netlist.t -> sweep

val netlist : sweep -> Dfm_netlist.Netlist.t

val of_fault : sweep -> params:params -> Dfm_faults.Fault.t -> int64
(** The fault's cone signature.  Cost: fanin arity + activation size, plus
    one walk of the fault's combinational fanout region the first time a
    given seed-net set is seen in this sweep. *)

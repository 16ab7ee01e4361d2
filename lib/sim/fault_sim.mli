(** Event-driven single-fault simulation over 64-pattern words.

    Given the fault-free value words of every net ({!Logic_sim.run}), a fault
    is injected as one or two seed overrides and the difference is propagated
    through the transitive fanout only, level by level, stopping when it dies
    out.  The result is the set of the 64 patterns (as a bit word) that
    detect the fault at an observable point.  Gates are evaluated by their
    compiled cell programs, internal (UDFM) faults activated by their
    compiled activation programs; a call allocates nothing but its result.

    Most faults differ from the good circuit on one net only: the output of
    the combinational gate hosting an internal or pin fault, or the net of a
    stuck-at or transition fault.  For those, {!detect_word} propagates the
    net rather than the fault: the net's observability (the patterns on which
    flipping it reaches an observable point) is computed once per net and
    fault-free store and ANDed with the fault's local difference word.
    Bridges, faults hosted by flops and {!syndrome} propagate each fault on
    its own.

    Transition faults need cross-pattern bookkeeping (an independent frame
    establishing the initial value — the enhanced-scan assumption documented
    in [Fault]); {!init_word} exposes the frame-1 condition so a campaign
    driver can accumulate both sides.

    A [t] is scratch state: one per domain. *)

type t

val prepare : Dfm_netlist.Netlist.t -> t

val sim : t -> Logic_sim.t
(** The underlying prepared logic simulator. *)

val detect_word : t -> good:Logic_sim.values -> Dfm_faults.Fault.t -> int64
(** Patterns (bits) on which the fault effect reaches an observable point.
    For a transition fault this is the frame-2 (stuck-at) component only.
    The result is exact, and equal to the union of the {!syndrome} words:
    the per-net observability it reuses is keyed on the physical identity of
    [good] (every {!Logic_sim.run} returns a fresh store), so a store may be
    revisited in any order.
    @raise Invalid_argument if [good] is not a store of this netlist, or
    the fault names a net, gate or pin the netlist does not have. *)

val init_word : t -> good:Logic_sim.values -> Dfm_faults.Fault.t -> int64
(** For a transition fault: patterns establishing the initial value at the
    site (frame 1).  [-1L] (all patterns) for other fault kinds. *)

val syndrome :
  t -> good:Logic_sim.values -> Dfm_faults.Fault.t -> (int * int64) list
(** Per observable point: (net id, word of patterns on which that point
    differs from the fault-free value), sorted by net id.  The union of the
    words equals {!detect_word}.  This is the per-output failure signature
    diagnosis matches against tester data. *)

val publish_counts : t -> unit
(** Add the faults simulated and the gate evaluations (queued fanout
    gates) counted since the last call to the process metrics
    [dfm_sim_faults_simulated_total] and [dfm_sim_gate_evals_total]; the
    kernel counts in plain fields, so callers publish after each stretch
    of simulation: a classification's random phase and its certified
    witness checks, and a test generation. *)

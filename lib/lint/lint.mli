(** Tier-A structural lint over {!Dfm_netlist.Netlist.t}.

    [Netlist.t] is a transparent record, so structurally invalid netlists
    (multi-driven nets, dangling references, combinational loops) are
    representable even though {!Dfm_netlist.Netlist.Builder} never produces
    them — error-severity rules catch exactly those.  Warning-severity rules
    flag suspicious-but-valid shapes (dead logic, floating inputs, extreme
    fanout); info-severity rules surface Tier-B facts (proven-constant
    nets, see {!Dataflow}) that indicate redundant logic.

    Every finding carries a stable rule id ([L0xx]), a severity, the
    offending net/gate, a message and a fix hint.  Reports render as text or
    JSON and can be filtered through a baseline (suppression) file, giving
    CI-friendly "no new findings" checks.

    Rule table (also in README.md):
    - L001 Error   combinational loop (Tarjan SCC over combinational gates)
    - L002 Error   multi-driven net / driver back-pointer mismatch
    - L003 Error   broken structural reference (out-of-range ids, stale sinks)
    - L004 Error   unknown cell (instance cell absent from the library)
    - L005 Error   pin-count mismatch between instance and cell arity
    - L006 Warning dangling combinational gate output (no sinks, not a PO)
    - L007 Warning floating primary input (no sinks, not a PO)
    - L008 Warning constant-fed gate (foldable logic)
    - L009 Warning fanout above the configured limit
    - L010 Warning unobservable gate output (sinks exist, but no structural
                   path to any PO or flip-flop D pin)
    - L011 Info    net proven constant by three-valued propagation even
                   though its driver is a gate (redundant logic) *)

type severity = Error | Warning | Info

type subject = Net of int | Gate of int | Whole_netlist

type finding = {
  rule : string;  (** stable id, e.g. ["L006"] *)
  severity : severity;
  subject : subject;
  subject_name : string;
      (** resolved net/gate name (or the netlist name for {!Whole_netlist});
          this is what baseline entries match on *)
  message : string;
  hint : string;  (** suggested fix *)
}

type report = { netlist_name : string; findings : finding list }

type config = {
  fanout_limit : int;  (** L009 threshold (default 16) *)
  rules : string list option;
      (** restrict checking to these rule ids; [None] means all rules *)
}

val default_config : config

val check : ?config:config -> Dfm_netlist.Netlist.t -> report
(** Run every enabled rule.  Never raises: when error-severity structural
    findings make the netlist graph unsafe to traverse (or cyclic), the
    graph-based rules (L001 excepted) and the Tier-B-backed rules are
    skipped for that run.  Each call bumps the [dfm_lint_findings_total]
    metrics counter by the number of findings. *)

val errors : report -> finding list
val warnings : report -> finding list

(** {1 Reporters} *)

val pp_text : Format.formatter -> report -> unit
(** One line per finding: [severity rule subject: message (hint: ...)]. *)

val to_json : report -> string
(** Stable machine-readable rendering:
    [{"netlist":...,"findings":[{"rule":...,"severity":...,"subject":...,
    "name":...,"message":...,"hint":...},...]}]. *)

(** {1 Baseline / suppression} *)

type baseline

val empty_baseline : baseline

val baseline_of_string : string -> baseline
(** One entry per line: [RULE subject-kind:subject-name] (e.g.
    [L006 gate:g12]); blank lines and [#] comments are ignored.
    @raise Failure on a malformed line. *)

val load_baseline : string -> baseline
(** Read a baseline file. @raise Sys_error when unreadable. *)

val baseline_of_report : report -> string
(** Serialize every finding of the report as a baseline file (with a
    header comment) — the "accept current state" workflow. *)

val suppress : baseline -> report -> report * finding list
(** [(kept, suppressed)]: partitions the report's findings by baseline
    membership; [kept] is the report with only unsuppressed findings. *)

(** Experiment reporting: the rows of the paper's Table I and Table II, the
    Fig. 2 per-iteration series, and the Section IV restricted-library
    ablation.  Shared by [bench/main.exe] and the examples so the paper's
    numbers are regenerated by exactly one code path. *)

type table1_row = {
  t1_circuit : string;
  f_in : int;
  f_ex : int;
  u_in : int;
  u_ex : int;
  g_u : int;
  gmax : int;
  smax : int;
  pct_smax_u : float;
}

val table1_row : name:string -> Design.t -> table1_row

val pp_table1_header : Format.formatter -> unit -> unit
val pp_table1_row : Format.formatter -> table1_row -> unit

type table2_row = {
  t2_circuit : string;
  max_inc : string;        (** ["orig"] or the best q as ["N%"] *)
  f : int;
  u : int;
  cov : float;             (** percent *)
  tests : int;             (** |T| *)
  smax : int;
  pct_smax_all : float;
  smax_i : int;
  pct_smax_i : float;
  delay_rel : float;       (** 1.0 = original *)
  power_rel : float;
  rtime : float;           (** 1.0 for the original row *)
}

val table2_rows : name:string -> Resynth.result -> table2_row * table2_row
(** Builds the original-design row and the resynthesized row, including the
    compacted test-set sizes (runs {!Dfm_atpg.Atpg.generate} on both
    designs).  The resynthesized row's [rtime] is the campaign's runtime in
    units of one synthesis + physical design + test generation iteration:
    this function times that unit as one uncached {!Design.implement} of the
    original netlist on its floorplan plus the original design's test
    generation, and reports [(unit + elapsed_s) / unit]. *)

val average_rows : table2_row list -> table2_row
(** The paper's [average] row (over original or over resynthesized rows). *)

val pp_table2_header : Format.formatter -> unit -> unit
val pp_table2_row : Format.formatter -> table2_row -> unit

val pp_effort : Format.formatter -> Resynth.result -> unit
(** One line: what the run cost in solver work, from its
    {!Resynth.effort}.  What the resilience machinery (checkpoint resume,
    abort escalation) had to absorb, and the certification counters, are
    appended only when nonzero, so an uncertified healthy run keeps its
    exact shape. *)

type fig2_point = {
  step : int;
  phase : int;
  q : int;
  u : int;
  smax_size : int;
}

val fig2_series : Resynth.result -> fig2_point list
(** The accepted-step trajectory: largest cluster broken first (phase 1),
    then whole-circuit cleanup (phase 2) — the shape of Fig. 2. *)

type ablation_row = {
  ab_circuit : string;
  removed : string list;   (** the 7 largest-internal-fault cells *)
  delay_rel : float;
  power_rel : float;
  fits : bool;             (** layout completed in the original floorplan *)
}

val ablation : name:string -> Dfm_netlist.Netlist.t -> ablation_row
(** Re-synthesize the whole block with the seven largest cells removed from
    the library and lay it out in the original floorplan, as in the last
    experiment of Section IV. *)

type guideline_row = {
  gl : Dfm_guidelines.Guideline.t;
  n_faults : int;          (** faults this guideline's violations predicted *)
  n_undetectable : int;    (** of which undetectable (uncovered sites) *)
}

val guideline_table : Design.t -> guideline_row list
(** Per-guideline accounting of the fault list, undetectable-heavy first —
    which recommendations, when violated, leave uncovered sites. *)

val analyze_report : name:string -> Design.t -> string
(** The deterministic analyze report (netlist summary, metrics, Table-I
    row, cluster sizes) as one string — exactly the bytes the analyze
    subcommand prints after its progress chatter.  The serve daemon
    returns this string for analyze jobs, and `analyze --report FILE`
    writes it, so daemon-vs-one-shot byte equality is testable. *)

val resynth_report : name:string -> Resynth.result -> string
(** Deterministic resynthesis summary: initial/final metrics, the chain of
    accepted steps, and the final netlist hash.  Excludes wall-clock and
    cache-warmth-dependent counters on purpose — the text is reproducible
    across restarts and checkpoint resumes of the same campaign. *)

(** DPPM impact of the undetectable DFM faults.

    The paper's motivation: a defect at an uncovered site escapes test, and
    because DFM-predicted defects are *systematic*, escapes scale with the
    number of uncovered sites and hit every die.  This model turns the
    undetectable-fault list into an expected defective-parts-per-million
    figure: each undetectable fault is an uncovered potential-defect site
    whose occurrence probability depends on its guideline category (vias
    fail more often than wide-metal spots, etc.), and the per-die escape
    probability composes independently across sites.

    Absolute values follow the rates; the meaningful quantity is the
    original-vs-resynthesized *ratio*, reported by the bench next to
    Table II. *)

val escapes_dppm : Design.t -> float
(** Expected test escapes in DPPM: [1e6 * (1 - prod(1 - p_i))] over the
    undetectable faults of the design, with [p_i] via 12 ppm, metal 6 ppm
    and density 3 ppm per uncovered site — ballpark systematic-defect
    excess rates for a risky 0.18um feature. *)

val breakdown : Design.t -> (string * int * float) list
(** Per guideline-category: (category, uncovered sites, dppm share). *)

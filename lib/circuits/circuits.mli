(** Deterministic generators for the paper's twelve benchmark blocks.

    Five OpenCores designs (tv80, systemcaes, aes_core, wb_conmax, des_perf)
    and seven OpenSPARC T1 logic blocks (spu, ffu, exu, ifu, tlu, lsu, fpu)
    are rebuilt from structural motifs at container-feasible sizes (see
    DESIGN.md §2 for the substitution argument).  Generation is
    deterministic: the same name and scale always produce the identical
    netlist, so every experiment is reproducible.

    The [scale] factor (default from the [REPRO_SCALE] environment variable,
    or 1.0) multiplies the motif sizes. *)

val names : string list
(** All twelve block names, in the paper's Table II order. *)

val table1_names : string list
(** The four blocks of Table I: aes_core, des_perf, sparc_exu, sparc_fpu. *)

val default_scale : unit -> float
(** [REPRO_SCALE] environment variable, defaulting to 1.0. *)

val build : ?scale:float -> string -> Dfm_netlist.Netlist.t
(** Generate a block by name.  @raise Not_found for unknown names. *)

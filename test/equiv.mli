(** BDD-based combinational equivalence checking of two netlists.

    Two netlists are compared on the full-scan combinational view: the
    controllable points ([Netlist.input_nets]) are matched by label and the
    observable points ([Netlist.observe_nets]) must compute identical
    functions.  This is the independent oracle used in tests to confirm that
    technology mapping and the resynthesis procedure preserve circuit
    function (the SAT miter in [dfm_atpg] is the production check). *)

type verdict =
  | Equivalent
  | Different of string  (** label of a mismatching observable point *)
  | Interface_mismatch of string

val check : Dfm_netlist.Netlist.t -> Dfm_netlist.Netlist.t -> verdict

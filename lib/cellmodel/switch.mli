(** Switch-level (transistor-network) simulation of standard cells.

    A cell is a network of N/P MOS devices between circuit nodes.  Evaluation
    is a static, charge-free conduction analysis: the strong sources are VDD,
    GND and the externally driven input pins; a node's logic value is derived
    from which sources it (definitely or possibly) conducts to through ON
    transistors.  Unknown transistor gate values make devices "maybe-ON" and
    the analysis resolves pessimistically to [VX].

    This is how intra-cell defects are translated to user-defined fault model
    (UDFM) activation patterns, following the cell-aware methodology the
    paper builds on [9-11]. *)

type node =
  | Vdd
  | Gnd
  | Pin of string   (** an input pin, externally driven *)
  | Out             (** the single output node *)
  | Mid of int      (** internal node *)

type mos = Nmos | Pmos

type transistor = {
  t_id : int;
  mos : mos;
  g : node;   (** gate terminal *)
  a : node;   (** channel terminal *)
  b : node;   (** channel terminal *)
}

type circuit = {
  c_name : string;
  devices : transistor list;
  n_mids : int;  (** number of distinct [Mid] nodes *)
}

type v4 = V0 | V1 | VX | VZ

val v4_to_string : v4 -> string

type condition = {
  stuck_off : int list;        (** devices removed (open channel) *)
  shorted : (node * node) list;(** permanently conducting node pairs *)
  open_pins : string list;     (** pins with broken contact: gates driven by
                                   them float and the pin stops sourcing *)
}

val healthy : condition

val eval : circuit -> condition -> (string * bool) list -> v4
(** [eval c cond pins] is the value of [Out] for the given input-pin
    assignment under the given defect condition. *)

val pins : circuit -> string list
(** Input pins appearing in the network, sorted. *)

val validate : circuit -> unit
(** Sanity checks: device ids dense, mid indices in range.
    @raise Failure on violation. *)

(** Standard-cell descriptions.

    A cell is a single-output library element: its logic function (a truth
    table over the input pins in order), electrical parameters for the
    timing/power models, and a physical footprint for placement.  Sequential
    cells (D flip-flops) carry [is_seq = true]; their [func] is the identity
    on the D pin and they are split into pseudo-PI/PO pairs by the scan view
    (see {!Netlist.comb_view}). *)

type t = {
  name : string;
  inputs : string array;        (** input pin names, in truth-table order *)
  output : string;              (** output pin name *)
  func : Dfm_logic.Truthtable.t;
  prog : Dfm_logic.Wordprog.t;  (** [func] compiled once, for the simulators *)
  area : float;                 (** footprint area, um^2 *)
  width : float;                (** placement-row width, um *)
  height : float;               (** row height, um (uniform per library) *)
  intrinsic_delay : float;      (** ns *)
  drive_res : float;            (** ns per pF of load *)
  input_cap : float;            (** pF per input pin *)
  leakage : float;              (** nW *)
  transistors : int;            (** switch-level device count *)
  is_seq : bool;
}

val arity : t -> int

val make :
  name:string ->
  inputs:string list ->
  func:Dfm_logic.Truthtable.t ->
  area:float ->
  width:float ->
  intrinsic_delay:float ->
  drive_res:float ->
  input_cap:float ->
  leakage:float ->
  transistors:int ->
  ?is_seq:bool ->
  unit ->
  t
(** [make] checks that the truth-table arity matches the pin count and
    compiles [func] into [prog].
    Every cell drives pin ["Y"] and is 5.0 um tall; [is_seq] defaults to
    [false]. *)

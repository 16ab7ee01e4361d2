type t = {
  name : string;
  inputs : string array;
  output : string;
  func : Dfm_logic.Truthtable.t;
  prog : Dfm_logic.Wordprog.t;
  area : float;
  width : float;
  height : float;
  intrinsic_delay : float;
  drive_res : float;
  input_cap : float;
  leakage : float;
  transistors : int;
  is_seq : bool;
}

let arity c = Array.length c.inputs

let make ~name ~inputs ~func ~area ~width ~intrinsic_delay ~drive_res ~input_cap ~leakage
    ~transistors ?(is_seq = false) () =
  let inputs = Array.of_list inputs in
  if Dfm_logic.Truthtable.arity func <> Array.length inputs then
    invalid_arg (Printf.sprintf "Cell.make %s: function arity mismatch" name);
  {
    name;
    inputs;
    output = "Y";
    func;
    prog = Dfm_logic.Wordprog.compile func;
    area;
    width;
    height = 5.0;
    intrinsic_delay;
    drive_res;
    input_cap;
    leakage;
    transistors;
    is_seq;
  }

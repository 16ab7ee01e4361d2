module Tt = Dfm_logic.Truthtable

type entry = {
  site : Defect.site;
  activation : int list;
  program : Dfm_logic.Wordprog.t;
}

let entry ~arity site activation =
  { site; activation; program = Dfm_logic.Wordprog.of_minterms ~arity activation }

type t = {
  cell_name : string;
  arity : int;
  entries : entry list;
  benign_sites : int;
}

let bool_of_v4 = function
  | Switch.V0 -> Some false
  | Switch.V1 -> Some true
  | Switch.VX | Switch.VZ -> None

(* Activation for hand-modeled flip-flop defects: which D values exercise
   the defect (master/slave latch holding that value). *)
let dff_activation (site : Defect.site) =
  match site.Defect.defect with
  | Defect.Pin_open _ -> [ 0; 1 ]
  | Defect.Node_short (_, Switch.Vdd) -> [ 0 ]
  | Defect.Node_short (_, Switch.Gnd) -> [ 1 ]
  | Defect.Node_short (_, _) -> [ site.Defect.site_id mod 2 ]
  | Defect.Transistor_stuck_off i -> [ i mod 2 ]
  | Defect.Drain_source_short i -> [ (i + 1) mod 2 ]

let characterize (m : Osu018.model) =
  let cell = m.Osu018.cell in
  let name = cell.Dfm_netlist.Cell.name in
  let arity = Dfm_netlist.Cell.arity cell in
  match m.Osu018.network with
  | None ->
      let entries =
        List.map (fun site -> entry ~arity site (dff_activation site)) m.Osu018.sites
      in
      { cell_name = name; arity; entries; benign_sites = 0 }
  | Some network ->
      let pin_names = cell.Dfm_netlist.Cell.inputs in
      let assignment_of_minterm mt =
        Array.to_list (Array.mapi (fun k p -> (p, (mt lsr k) land 1 = 1)) pin_names)
      in
      (* Check the healthy network against the declared truth table. *)
      for mt = 0 to (1 lsl arity) - 1 do
        let v = Switch.eval network Switch.healthy (assignment_of_minterm mt) in
        match bool_of_v4 v with
        | Some b when b = Tt.eval_index cell.Dfm_netlist.Cell.func mt -> ()
        | _ ->
            failwith
              (Printf.sprintf "Udfm.characterize %s: healthy network gives %s on minterm %d"
                 name (Switch.v4_to_string v) mt)
      done;
      let benign = ref 0 in
      let entries =
        List.filter_map
          (fun (site : Defect.site) ->
            let cond = Defect.to_condition network site.Defect.defect in
            let activation = ref [] in
            for mt = (1 lsl arity) - 1 downto 0 do
              let good = Tt.eval_index cell.Dfm_netlist.Cell.func mt in
              let faulty = Switch.eval network cond (assignment_of_minterm mt) in
              let deviates =
                match bool_of_v4 faulty with
                | Some b -> b <> good
                | None -> true  (* X or Z: pessimistically a deviation *)
              in
              if deviates then activation := mt :: !activation
            done;
            if !activation = [] then begin
              incr benign;
              None
            end
            else Some (entry ~arity site !activation))
          m.Osu018.sites
      in
      { cell_name = name; arity; entries; benign_sites = !benign }

let cache = lazy (List.map characterize Osu018.models)

let all () = Lazy.force cache

let by_name =
  lazy
    (let tbl = Hashtbl.create 32 in
     List.iter (fun u -> Hashtbl.add tbl u.cell_name u) (all ());
     tbl)

let for_cell name =
  match Hashtbl.find_opt (Lazy.force by_name) name with
  | Some u -> u
  | None -> raise Not_found

let internal_fault_count name = List.length (for_cell name).entries

let preload () = ignore (Lazy.force by_name : (string, t) Hashtbl.t)

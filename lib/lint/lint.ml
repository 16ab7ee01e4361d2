module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module Library = Dfm_netlist.Library
module Metrics = Dfm_obs.Metrics

let m_findings =
  Metrics.counter ~help:"Lint findings reported" "dfm_lint_findings_total"

type severity = Error | Warning | Info

type subject = Net of int | Gate of int | Whole_netlist

type finding = {
  rule : string;
  severity : severity;
  subject : subject;
  subject_name : string;
  message : string;
  hint : string;
}

type report = { netlist_name : string; findings : finding list }

type config = { fanout_limit : int; rules : string list option }

let default_config = { fanout_limit = 16; rules = None }

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let rule_order f = f.rule

let subject_id = function Net n -> n | Gate g -> g | Whole_netlist -> -1

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

let net_name nl n =
  if n >= 0 && n < N.num_nets nl then (N.net nl n).N.net_name
  else Printf.sprintf "net#%d" n

let gate_name nl g =
  if g >= 0 && g < N.num_gates nl then (N.gate nl g).N.gate_name
  else Printf.sprintf "gate#%d" g

(* Iterative Tarjan over the combinational gate graph (edge a -> b when a's
   output net feeds a pin of b).  Returns the SCCs that actually contain a
   cycle: size >= 2, or a single gate reading its own output. *)
let comb_sccs nl =
  let ng = N.num_gates nl in
  let comb g = not (N.gate nl g).N.cell.Cell.is_seq in
  let succs g =
    (N.net nl (N.gate nl g).N.fanout).N.sinks
    |> List.filter_map (fun (s, _) -> if comb s then Some s else None)
    |> List.sort_uniq compare
  in
  let index = Array.make ng (-1) in
  let lowlink = Array.make ng 0 in
  let on_stack = Array.make ng false in
  let stack = ref [] in
  let next_index = ref 0 in
  let sccs = ref [] in
  let visit root =
    (* Explicit DFS stack of (gate, remaining successors). *)
    let frames = ref [ (root, ref (succs root)) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (g, rest) :: tail -> (
          match !rest with
          | s :: more ->
              rest := more;
              if index.(s) = -1 then begin
                index.(s) <- !next_index;
                lowlink.(s) <- !next_index;
                incr next_index;
                stack := s :: !stack;
                on_stack.(s) <- true;
                frames := (s, ref (succs s)) :: !frames
              end
              else if on_stack.(s) then lowlink.(g) <- min lowlink.(g) index.(s)
          | [] ->
              frames := tail;
              (match tail with
              | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(g)
              | [] -> ());
              if lowlink.(g) = index.(g) then begin
                let scc = ref [] in
                let stop = ref false in
                while not !stop do
                  match !stack with
                  | [] -> stop := true
                  | v :: rest_stack ->
                      stack := rest_stack;
                      on_stack.(v) <- false;
                      scc := v :: !scc;
                      if v = g then stop := true
                done;
                let members = List.sort compare !scc in
                let cyclic =
                  match members with
                  | [ v ] -> List.mem v (succs v)
                  | _ :: _ :: _ -> true
                  | [] -> false
                in
                if cyclic then sccs := members :: !sccs
              end)
    done
  in
  for g = 0 to ng - 1 do
    if comb g && index.(g) = -1 then visit g
  done;
  List.rev !sccs

let check ?(config = default_config) nl =
  let enabled r = match config.rules with None -> true | Some l -> List.mem r l in
  let acc = ref [] in
  let structurally_broken = ref false in
  let add ?(breaks = false) rule severity subject message hint =
    if breaks then structurally_broken := true;
    if enabled rule then
      let subject_name =
        match subject with
        | Net n -> net_name nl n
        | Gate g -> gate_name nl g
        | Whole_netlist -> nl.N.name
      in
      acc := { rule; severity; subject; subject_name; message; hint } :: !acc
  in
  let nn = N.num_nets nl and ng = N.num_gates nl in
  let net_ok n = n >= 0 && n < nn in
  let gate_ok g = g >= 0 && g < ng in
  (* L003/L005: per-gate reference and arity integrity. *)
  Array.iteri
    (fun i (g : N.gate) ->
      if g.N.gate_id <> i then
        add ~breaks:true "L003" Error (Gate i)
          (Printf.sprintf "gate id %d stored at slot %d" g.N.gate_id i)
          "renumber gates to match their array slots";
      Array.iteri
        (fun pin fn ->
          if not (net_ok fn) then
            add ~breaks:true "L003" Error (Gate i)
              (Printf.sprintf "pin %d references nonexistent net %d" pin fn)
              "connect the pin to a declared net")
        g.N.fanins;
      if not (net_ok g.N.fanout) then
        add ~breaks:true "L003" Error (Gate i)
          (Printf.sprintf "output references nonexistent net %d" g.N.fanout)
          "drive a declared net";
      (match Library.find_opt nl.N.library g.N.cell.Cell.name with
      | None ->
          add "L004" Error (Gate i)
            (Printf.sprintf "cell %s is not in library" g.N.cell.Cell.name)
            "use a library cell or extend the library"
      | Some lc ->
          if not (Dfm_logic.Truthtable.equal lc.Cell.func g.N.cell.Cell.func) then
            add "L004" Error (Gate i)
              (Printf.sprintf "cell %s disagrees with its library definition"
                 g.N.cell.Cell.name)
              "rebuild the instance from the library cell");
      if Array.length g.N.fanins <> Cell.arity g.N.cell then
        add ~breaks:true "L005" Error (Gate i)
          (Printf.sprintf "%d pins connected but cell %s has arity %d"
             (Array.length g.N.fanins) g.N.cell.Cell.name (Cell.arity g.N.cell))
          "connect exactly one net per cell input pin")
    nl.N.gates;
  (* L002: driver consistency, seen from both directions. *)
  let claimed = Array.make (max 1 nn) [] in
  Array.iter
    (fun (g : N.gate) ->
      if net_ok g.N.fanout then claimed.(g.N.fanout) <- g.N.gate_id :: claimed.(g.N.fanout))
    nl.N.gates;
  Array.iteri
    (fun i (n : N.net) ->
      if n.N.net_id <> i then
        add ~breaks:true "L003" Error (Net i)
          (Printf.sprintf "net id %d stored at slot %d" n.N.net_id i)
          "renumber nets to match their array slots";
      let claims = List.rev claimed.(i) in
      (match n.N.driver with
      | N.Gate_out g ->
          if not (gate_ok g) then
            add ~breaks:true "L003" Error (Net i)
              (Printf.sprintf "driven by nonexistent gate %d" g)
              "point the driver at an existing gate"
          else if (N.gate nl g).N.fanout <> i then
            add ~breaks:true "L002" Error (Net i)
              (Printf.sprintf "driver gate %s does not drive it back" (gate_name nl g))
              "make net driver and gate fanout agree";
          if List.length claims > 1 then
            add ~breaks:true "L002" Error (Net i)
              (Printf.sprintf "%d gates drive it" (List.length claims))
              "give each driving gate its own output net"
      | N.Pi k ->
          if not (k >= 0 && k < Array.length nl.N.pis && snd nl.N.pis.(k) = i) then
            add ~breaks:true "L003" Error (Net i)
              (Printf.sprintf "PI back-pointer %d does not resolve to it" k)
              "fix the pis table entry";
          if claims <> [] then
            add ~breaks:true "L002" Error (Net i) "both a PI and a gate output"
              "give the gate its own output net"
      | N.Const _ ->
          if claims <> [] then
            add ~breaks:true "L002" Error (Net i) "both a constant and a gate output"
              "give the gate its own output net");
      List.iter
        (fun (g, pin) ->
          let ok =
            gate_ok g
            && pin >= 0
            && pin < Array.length (N.gate nl g).N.fanins
            && (N.gate nl g).N.fanins.(pin) = i
          in
          if not ok then
            add ~breaks:true "L003" Error (Net i)
              (Printf.sprintf "stale sink entry (gate %d, pin %d)" g pin)
              "recompute sink lists from gate fanins")
        n.N.sinks)
    nl.N.nets;
  (* Sinks recorded on gate fanins but missing from the net's list. *)
  if not !structurally_broken then
    Array.iter
      (fun (g : N.gate) ->
        Array.iteri
          (fun pin fn ->
            if not (List.mem (g.N.gate_id, pin) (N.net nl fn).N.sinks) then
              add ~breaks:true "L003" Error (Net fn)
                (Printf.sprintf "missing sink entry (gate %s, pin %d)" g.N.gate_name pin)
                "recompute sink lists from gate fanins")
          g.N.fanins)
      nl.N.gates;
  Array.iter
    (fun (pname, n) ->
      if not (net_ok n) then
        add ~breaks:true "L003" Error Whole_netlist
          (Printf.sprintf "PO %s references nonexistent net %d" pname n)
          "point the output at a declared net")
    nl.N.pos;
  (* Graph-based rules only run on a structurally sound netlist: with broken
     references or ids the traversals below would read garbage. *)
  let cyclic = ref false in
  if not !structurally_broken then begin
    List.iter
      (fun scc ->
        cyclic := true;
        let names = List.map (gate_name nl) scc in
        let shown =
          match names with
          | a :: b :: c :: _ :: _ -> Printf.sprintf "%s, %s, %s, ..." a b c
          | _ -> String.concat ", " names
        in
        add "L001" Error
          (Gate (List.hd scc))
          (Printf.sprintf "combinational loop through %d gate(s): %s"
             (List.length scc) shown)
          "break the loop with a flip-flop or restructure the logic")
      (comb_sccs nl);
    let po_nets = Array.fold_left (fun s (_, n) -> n :: s) [] nl.N.pos in
    let is_po n = List.mem n po_nets in
    Array.iter
      (fun (g : N.gate) ->
        if
          (not g.N.cell.Cell.is_seq)
          && (N.net nl g.N.fanout).N.sinks = []
          && not (is_po g.N.fanout)
        then
          add "L006" Warning (Gate g.N.gate_id)
            (Printf.sprintf "output %s drives nothing" (net_name nl g.N.fanout))
            "remove the dead gate or connect its output";
        if Array.exists (fun fn -> match (N.net nl fn).N.driver with
              | N.Const _ -> true
              | N.Pi _ | N.Gate_out _ -> false)
            g.N.fanins
        then
          add "L008" Warning (Gate g.N.gate_id) "reads a constant net"
            "fold the constant into a simpler cell")
      nl.N.gates;
    Array.iter
      (fun (pname, n) ->
        if (N.net nl n).N.sinks = [] && not (is_po n) then
          add "L007" Warning (Net n)
            (Printf.sprintf "primary input %s is read by nothing" pname)
            "remove the unused input or wire it up")
      nl.N.pis;
    Array.iter
      (fun (n : N.net) ->
        let fo = List.length n.N.sinks in
        if fo > config.fanout_limit then
          add "L009" Warning (Net n.N.net_id)
            (Printf.sprintf "fanout %d exceeds limit %d" fo config.fanout_limit)
            "buffer the net or duplicate its driver")
      nl.N.nets;
    (* Tier-B-backed rules: need an acyclic, well-formed netlist. *)
    if not !cyclic then begin
      let df = Dataflow.analyze nl in
      Array.iter
        (fun (g : N.gate) ->
          if
            (not g.N.cell.Cell.is_seq)
            && (N.net nl g.N.fanout).N.sinks <> []
            && not (Dataflow.reaches_observable df g.N.fanout)
          then
            add "L010" Warning (Gate g.N.gate_id)
              (Printf.sprintf "output %s never reaches a PO or flip-flop D pin"
                 (net_name nl g.N.fanout))
              "remove the unobservable cone or observe it")
        nl.N.gates;
      List.iter
        (fun (n, v) ->
          match (N.net nl n).N.driver with
          | N.Gate_out _ ->
              add "L011" Info (Net n)
                (Printf.sprintf "proven constant %d by three-valued propagation"
                   (if v then 1 else 0))
                "replace the driving cone with a constant"
          | N.Pi _ | N.Const _ -> ())
        (Dataflow.proven_constants df)
    end
  end;
  let findings =
    List.sort
      (fun a b ->
        let c = compare (rule_order a) (rule_order b) in
        if c <> 0 then c else compare (subject_id a.subject) (subject_id b.subject))
      !acc
  in
  Metrics.incr ~by:(List.length findings) m_findings;
  { netlist_name = nl.N.name; findings }

let errors r = List.filter (fun f -> f.severity = Error) r.findings
let warnings r = List.filter (fun f -> f.severity = Warning) r.findings

(* ------------------------------------------------------------------ *)
(* Reporters                                                           *)
(* ------------------------------------------------------------------ *)

let subject_kind = function Net _ -> "net" | Gate _ -> "gate" | Whole_netlist -> "netlist"

let pp_text ppf r =
  List.iter
    (fun f ->
      Format.fprintf ppf "%-7s %s %s:%s: %s (hint: %s)@." (severity_name f.severity)
        f.rule (subject_kind f.subject) f.subject_name f.message f.hint)
    r.findings;
  let ne = List.length (errors r) and nw = List.length (warnings r) in
  Format.fprintf ppf "%s: %d finding(s), %d error(s), %d warning(s)@." r.netlist_name
    (List.length r.findings) ne nw

let to_json r =
  let json_escape = Dfm_obs.Export.json_escape in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\"netlist\":\"%s\",\"findings\":[" (json_escape r.netlist_name));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"rule\":\"%s\",\"severity\":\"%s\",\"subject\":\"%s\",\"name\":\"%s\",\"message\":\"%s\",\"hint\":\"%s\"}"
           f.rule (severity_name f.severity) (subject_kind f.subject)
           (json_escape f.subject_name) (json_escape f.message) (json_escape f.hint)))
    r.findings;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

module StringSet = Set.Make (String)

type baseline = StringSet.t

let empty_baseline = StringSet.empty

let baseline_entry f =
  Printf.sprintf "%s %s:%s" f.rule (subject_kind f.subject) f.subject_name

let baseline_of_string text =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc raw ->
         let line = String.trim raw in
         if line = "" || line.[0] = '#' then acc
         else
           match String.index_opt line ' ' with
           | Some _ -> StringSet.add line acc
           | None -> failwith (Printf.sprintf "Lint.baseline: malformed line %S" line))
       StringSet.empty

let load_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  baseline_of_string text

let baseline_of_report r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "# lint baseline for %s\n" r.netlist_name);
  List.iter (fun f -> Buffer.add_string buf (baseline_entry f ^ "\n")) r.findings;
  Buffer.contents buf

let suppress bl r =
  let kept, dropped =
    List.partition (fun f -> not (StringSet.mem (baseline_entry f) bl)) r.findings
  in
  ({ r with findings = kept }, dropped)

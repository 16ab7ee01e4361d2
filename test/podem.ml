module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Tt = Dfm_logic.Truthtable

type verdict = Test of bool array | Redundant | Aborted

(* Three-valued logic: 0, 1, X. *)
type v3 = V0 | V1 | VX

let v3_of_bool b = if b then V1 else V0

(* Evaluate a cell truth table over 3-valued inputs by completing the X
   inputs both ways (arity <= 4, so at most 16 completions). *)
let eval3 (f : Tt.t) (ins : v3 array) =
  let n = Tt.arity f in
  let xs = ref [] in
  for k = n - 1 downto 0 do
    if ins.(k) = VX then xs := k :: !xs
  done;
  match !xs with
  | [] ->
      let idx = ref 0 in
      Array.iteri (fun k v -> if v = V1 then idx := !idx lor (1 lsl k)) ins;
      if Tt.eval_index f !idx then V1 else V0
  | xvars ->
      let nx = List.length xvars in
      let first = ref None in
      let all_same = ref true in
      for m = 0 to (1 lsl nx) - 1 do
        let idx = ref 0 in
        Array.iteri (fun k v -> if v = V1 then idx := !idx lor (1 lsl k)) ins;
        List.iteri
          (fun j k -> if (m lsr j) land 1 = 1 then idx := !idx lor (1 lsl k))
          xvars;
        let b = Tt.eval_index f !idx in
        match !first with
        | None -> first := Some b
        | Some b0 -> if b <> b0 then all_same := false
      done;
      if !all_same then (match !first with Some b -> v3_of_bool b | None -> VX) else VX

type state = {
  ls : Dfm_sim.Logic_sim.t;
  nl : N.t;
  fault_loc : F.site_loc;
  fault_value : bool;  (* the stuck value *)
  pi_value : v3 array;          (* per controllable point, decision state *)
  good : v3 array;              (* per net *)
  faulty : v3 array;            (* per net *)
  input_index_of_net : (int, int) Hashtbl.t;
  observe : int list;
}

(* Full (good, faulty) 3-valued resimulation from the current PI values. *)
let imply st =
  let nl = st.nl in
  List.iteri
    (fun i (_, nid) ->
      st.good.(nid) <- st.pi_value.(i);
      st.faulty.(nid) <- st.pi_value.(i))
    (Dfm_sim.Logic_sim.inputs st.ls);
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const v ->
          st.good.(nn.N.net_id) <- v3_of_bool v;
          st.faulty.(nn.N.net_id) <- v3_of_bool v
      | N.Pi _ | N.Gate_out _ -> ())
    nl.N.nets;
  (* Net-located fault on a source net: force the faulty copy. *)
  (match st.fault_loc with
  | F.On_net n -> (
      match (N.net nl n).N.driver with
      | N.Pi _ | N.Const _ -> st.faulty.(n) <- v3_of_bool st.fault_value
      | N.Gate_out _ -> ())
  | F.On_pin _ -> ());
  Array.iter
    (fun gid ->
      let g = N.gate nl gid in
      let n_in = Array.length g.N.fanins in
      let gi = Array.make n_in VX and fi = Array.make n_in VX in
      for k = 0 to n_in - 1 do
        gi.(k) <- st.good.(g.N.fanins.(k));
        fi.(k) <- st.faulty.(g.N.fanins.(k))
      done;
      (* Pin-located fault: the faulty copy of this gate sees the stuck
         value on that pin. *)
      (match st.fault_loc with
      | F.On_pin (fg, pin) when fg = gid -> fi.(pin) <- v3_of_bool st.fault_value
      | F.On_pin _ | F.On_net _ -> ());
      st.good.(g.N.fanout) <- eval3 g.N.cell.Cell.func gi;
      st.faulty.(g.N.fanout) <- eval3 g.N.cell.Cell.func fi;
      (* Net-located fault at this gate's output. *)
      match st.fault_loc with
      | F.On_net n when n = g.N.fanout -> st.faulty.(n) <- v3_of_bool st.fault_value
      | F.On_net _ | F.On_pin _ -> ())
    (Dfm_sim.Logic_sim.topo st.ls)

let fault_site_net st =
  match st.fault_loc with
  | F.On_net n -> n
  | F.On_pin (g, pin) -> (N.gate st.nl g).N.fanins.(pin)

let detected st =
  List.exists
    (fun o -> st.good.(o) <> VX && st.faulty.(o) <> VX && st.good.(o) <> st.faulty.(o))
    st.observe

(* The D-frontier: gates with a propagated difference on some input and an
   undetermined output difference. *)
let d_frontier st =
  List.filter_map
    (fun (g : N.gate) ->
      let out = g.N.fanout in
      let out_diff = st.good.(out) <> VX && st.faulty.(out) <> VX && st.good.(out) <> st.faulty.(out) in
      let out_open = st.good.(out) = VX || st.faulty.(out) = VX in
      if out_diff || not out_open then None
      else if
        Array.exists
          (fun fn ->
            st.good.(fn) <> VX && st.faulty.(fn) <> VX && st.good.(fn) <> st.faulty.(fn))
          g.N.fanins
      then Some g
      else None)
    (N.comb_gates st.nl)

(* Backtrace an objective (net, value) through X-valued logic to a PI
   assignment.  For an arbitrary cell function we pick an X input and a value
   for it under which the desired output is still achievable. *)
let rec backtrace st net desired =
  match Hashtbl.find_opt st.input_index_of_net net with
  | Some i -> Some (i, desired)
  | None -> (
      match (N.net st.nl net).N.driver with
      | N.Pi _ | N.Const _ -> None
      | N.Gate_out gid ->
          let g = N.gate st.nl gid in
          let f = g.N.cell.Cell.func in
          let n_in = Array.length g.N.fanins in
          let current = Array.map (fun fn -> st.good.(fn)) g.N.fanins in
          (* try each X input and each value: keep one that leaves the
             desired output reachable *)
          let try_choice k v =
            let trial = Array.copy current in
            trial.(k) <- v;
            (* reachable if some completion of the remaining X gives desired *)
            let n_x = ref 0 in
            Array.iter (fun t -> if t = VX then incr n_x) trial;
            let xvars = ref [] in
            Array.iteri (fun j t -> if t = VX then xvars := j :: !xvars) trial;
            let reachable = ref false in
            for m = 0 to (1 lsl !n_x) - 1 do
              let idx = ref 0 in
              Array.iteri (fun j t -> if t = V1 then idx := !idx lor (1 lsl j)) trial;
              List.iteri
                (fun j k' -> if (m lsr j) land 1 = 1 then idx := !idx lor (1 lsl k'))
                !xvars;
              if v3_of_bool (Tt.eval_index f !idx) = desired then reachable := true
            done;
            !reachable
          in
          let rec pick k =
            if k >= n_in then None
            else if current.(k) = VX then
              if try_choice k V1 then backtrace st g.N.fanins.(k) V1
              else if try_choice k V0 then backtrace st g.N.fanins.(k) V0
              else pick (k + 1)
            else pick (k + 1)
          in
          pick 0)

let check ?(max_backtracks = 10_000) ls (fault : F.t) =
  let loc, pol =
    match fault.F.kind with
    | F.Stuck (loc, pol) -> (loc, pol)
    | F.Transition _ | F.Bridge _ | F.Internal _ ->
        invalid_arg "Podem.check: only stuck-at faults"
  in
  let nl = Dfm_sim.Logic_sim.netlist ls in
  let inputs = Dfm_sim.Logic_sim.inputs ls in
  let input_index_of_net = Hashtbl.create 64 in
  List.iteri (fun i (_, nid) -> Hashtbl.add input_index_of_net nid i) inputs;
  let st =
    {
      ls;
      nl;
      fault_loc = loc;
      fault_value = (pol = F.Sa1);
      pi_value = Array.make (List.length inputs) VX;
      good = Array.make (N.num_nets nl) VX;
      faulty = Array.make (N.num_nets nl) VX;
      input_index_of_net;
      observe = List.map snd (N.observe_nets nl);
    }
  in
  let backtracks = ref 0 in
  (* Decision stack: (pi index, tried-both-values?). *)
  let stack = ref [] in
  let exception Done of verdict in
  let site = fault_site_net st in
  try
    imply st;
    let rec search () =
      if detected st then
        raise
          (Done
             (Test
                (Array.map (fun v -> v = V1) st.pi_value)))
      else begin
        (* Choose the next objective. *)
        let objective =
          if st.good.(site) = VX then
            (* activate: good value must be the opposite of the stuck value *)
            Some (site, if st.fault_value then V0 else V1)
          else if st.good.(site) = v3_of_bool st.fault_value then None  (* not activatable now *)
          else begin
            (* propagate through the D-frontier *)
            match d_frontier st with
            | [] -> None
            | g :: _ -> (
                (* set some X input of the frontier gate *)
                let rec first_x k =
                  if k >= Array.length g.N.fanins then None
                  else if st.good.(g.N.fanins.(k)) = VX then Some g.N.fanins.(k)
                  else first_x (k + 1)
                in
                match first_x 0 with None -> None | Some n -> Some (n, V1))
          end
        in
        match objective with
        | None -> backtrack ()
        | Some (net, desired) -> (
            match backtrace st net desired with
            | None -> backtrack ()
            | Some (pi, v) ->
                stack := (pi, false) :: !stack;
                st.pi_value.(pi) <- v;
                imply st;
                search ())
      end
    and backtrack () =
      incr backtracks;
      if !backtracks > max_backtracks then raise (Done Aborted);
      match !stack with
      | [] -> raise (Done Redundant)
      | (pi, true) :: rest ->
          st.pi_value.(pi) <- VX;
          stack := rest;
          imply st;
          backtrack ()
      | (pi, false) :: rest ->
          st.pi_value.(pi) <- (if st.pi_value.(pi) = V1 then V0 else V1);
          stack := (pi, true) :: rest;
          imply st;
          search ()
    in
    search ()
  with Done v -> v

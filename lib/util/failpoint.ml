type action = Raise | Io_error | Partial_write | Delay of float

exception Injected of string

type site = {
  action : action;
  after : int;
  times : int option;  (* None = unlimited *)
  prob : float option;
  rng : Rng.t;
  mutable hits : int;
  mutable fired : int;
}

(* The armed flag is read without the lock on the (overwhelmingly common)
   disarmed path; it is only ever set under the lock, and a stale [false]
   can only be observed by a domain racing the very enable call that arms
   the site — tests arm sites before starting workers. *)
let armed = ref false
let lock = Mutex.create ()
let sites : (string, site) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enable ?(after = 0) ?times ?prob ?(seed = 0) name action =
  locked (fun () ->
      Hashtbl.replace sites name
        { action; after; times; prob; rng = Rng.create (seed + 0x5EED); hits = 0; fired = 0 };
      armed := true)

let disable name =
  locked (fun () ->
      Hashtbl.remove sites name;
      if Hashtbl.length sites = 0 then armed := false)

let clear () =
  locked (fun () ->
      Hashtbl.reset sites;
      armed := false)

let check name =
  if not !armed then None
  else
    locked (fun () ->
        match Hashtbl.find_opt sites name with
        | None -> None
        | Some s ->
            s.hits <- s.hits + 1;
            let due =
              s.hits > s.after
              && (match s.times with None -> true | Some t -> s.fired < t)
              && (match s.prob with None -> true | Some p -> Rng.chance s.rng p)
            in
            if due then begin
              s.fired <- s.fired + 1;
              Some s.action
            end
            else None)

let act name = function
  | Raise -> raise (Injected name)
  | Io_error | Partial_write -> raise (Sys_error ("failpoint: " ^ name))
  | Delay s -> Unix.sleepf s

let hit name = Option.iter (act name) (check name)

let guard_write name ~write s =
  match check name with
  | Some Partial_write ->
      write s 0 (max 1 (String.length s / 2));
      raise (Sys_error (Printf.sprintf "failpoint: %s (partial write)" name))
  | a -> Option.iter (act name) a

let hit_count name =
  if not !armed then 0
  else locked (fun () -> match Hashtbl.find_opt sites name with None -> 0 | Some s -> s.hits)

let any_active () = !armed

(* ---- spec parsing: NAME=ACTION[:key=val]* ------------------------- *)

let known_sites =
  [ "checkpoint.append"; "parallel.task"; "sat.solve"; "serve.accept_emfile"; "serve.conn";
    "serve.ledger"; "store.append"; "store.enospc" ]

let parse spec =
  let spec = String.trim spec in
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "failpoint spec %S: missing '='" spec)
  | Some eq -> (
      let name = String.sub spec 0 eq in
      let rest = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      if not (List.mem name known_sites) then
        Error
          (Printf.sprintf "failpoint spec %S: unknown site %S (sites: %s)" spec name
             (String.concat ", " known_sites))
      else
        match String.split_on_char ':' rest with
        | [] | [ "" ] -> Error (Printf.sprintf "failpoint spec %S: missing action" spec)
        | act :: opts -> (
            let action =
              match String.split_on_char '=' act with
              | [ "raise" ] -> Ok Raise
              | [ "io" ] -> Ok Io_error
              | [ "partial" ] -> Ok Partial_write
              | [ "delay"; s ] -> (
                  match float_of_string_opt s with
                  | Some f when f >= 0.0 -> Ok (Delay f)
                  | Some _ | None -> Error (Printf.sprintf "bad delay %S" s))
              | _ -> Error (Printf.sprintf "unknown action %S" act)
            in
            match action with
            | Error e -> Error (Printf.sprintf "failpoint spec %S: %s" spec e)
            | Ok action -> (
                let rec fold after times prob seed = function
                  | [] ->
                      enable ?after ?times ?prob ?seed name action;
                      Ok ()
                  | o :: rest -> (
                      match String.split_on_char '=' o with
                      | [ "after"; v ] when int_of_string_opt v <> None ->
                          fold (int_of_string_opt v) times prob seed rest
                      | [ "times"; v ] when int_of_string_opt v <> None ->
                          fold after (int_of_string_opt v) prob seed rest
                      | [ "prob"; v ] when float_of_string_opt v <> None ->
                          fold after times (float_of_string_opt v) seed rest
                      | [ "seed"; v ] when int_of_string_opt v <> None ->
                          fold after times prob (int_of_string_opt v) rest
                      | _ -> Error (Printf.sprintf "failpoint spec %S: bad option %S" spec o))
                in
                fold None None None None opts)))

let parse_env () =
  match Sys.getenv_opt "REPRO_FAILPOINTS" with
  | None | Some "" -> Ok ()
  | Some v ->
      let specs =
        String.split_on_char ',' v
        |> List.concat_map (String.split_on_char ';')
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      List.fold_left (fun acc s -> match acc with Error _ -> acc | Ok () -> parse s) (Ok ()) specs

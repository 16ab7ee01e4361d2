type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

type record = {
  level : level;
  message : string;
  attrs : (string * string) list;
}

(* The level gate is a single atomic read on the fast path; the sink itself
   is behind a mutex because records can originate in worker domains. *)
let threshold = Atomic.make (severity Warn)
let sink : (record -> unit) option ref = ref None
let sink_mutex = Mutex.create ()

let set_level l = Atomic.set threshold (severity l)

let set_sink s =
  Mutex.lock sink_mutex;
  sink := s;
  Mutex.unlock sink_mutex

(* Flight-recorder retention: when on, every record passing the level gate
   is also kept in a small process-wide ring, sink or no sink, so a
   post-mortem dump can include the most recent log lines. *)
let retain_capacity = 256
let retain_flag = Atomic.make false
let retain_ring : record option array = Array.make retain_capacity None
let retain_pos = ref 0
let retain_count = ref 0
let retain_mutex = Mutex.create ()

let set_retain b = Atomic.set retain_flag b

let retain r =
  Mutex.lock retain_mutex;
  retain_ring.(!retain_pos) <- Some r;
  retain_pos := (!retain_pos + 1) mod retain_capacity;
  incr retain_count;
  Mutex.unlock retain_mutex

let recent () =
  Mutex.lock retain_mutex;
  let n = min !retain_count retain_capacity in
  let out = ref [] in
  for i = 0 to n - 1 do
    match
      retain_ring.((!retain_pos - 1 - i + (2 * retain_capacity)) mod retain_capacity)
    with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  Mutex.unlock retain_mutex;
  !out

let would_log l =
  (!sink <> None || Atomic.get retain_flag) && severity l <= Atomic.get threshold

let stderr_sink r =
  let attrs =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) r.attrs)
  in
  Printf.eprintf "%s: %s%s\n%!" (level_to_string r.level) r.message attrs

let log ?(attrs = []) level message =
  if would_log level then begin
    if Atomic.get retain_flag then retain { level; message; attrs };
    Mutex.lock sink_mutex;
    (match !sink with
    | Some deliver -> ( try deliver { level; message; attrs } with _ -> ())
    | None -> ());
    Mutex.unlock sink_mutex
  end

let error ?attrs m = log ?attrs Error m
let warn ?attrs m = log ?attrs Warn m
let info ?attrs m = log ?attrs Info m
let debug ?attrs m = log ?attrs Debug m

let logf ?attrs level fmt =
  (* ksprintf renders unconditionally; keep the cheap drop for the common
     disabled case by routing through [log]'s own gate afterwards only when
     it could matter.  Call sites with expensive arguments should guard
     with [would_log] themselves. *)
  Printf.ksprintf (fun s -> log ?attrs level s) fmt

(* Validator for the observability artifacts a campaign writes with
   [--trace] and [--metrics]:

     obs_validate TRACE.json METRICS.prom [MIN_DEPTH]

   - the trace must parse as Chrome trace-event JSON ({"traceEvents":[...]})
     and, per tid, form a properly nested B/E stream (every E closes the
     most recent open B of the same name; nothing left open at the end);
   - the deepest nesting across all tids must reach MIN_DEPTH (default 5)
     span levels — the campaign hierarchy campaign > q-step > phase >
     candidate > implement > classify is visible, not flattened;
   - no "sat.solve" span opens at depth 0: every SAT solve belongs to a
     layer span (classification, generation, equivalence check, ...);
   - the Prometheus exposition must have no duplicate metric/label series,
     at most one # TYPE per family, and must contain the SAT, cache, pool
     and checkpoint metric families.

   Exit 0 when everything holds, exit 1 with a one-line reason otherwise.
   JSON is read with the serve protocol's parser ([Dfm_serve.Wire.parse]),
   which shares no code with the trace writer in [Dfm_obs.Export]: the
   checks are of the files, not of the writer's own view of them. *)

module Wire = Dfm_serve.Wire

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("obs_validate: " ^ msg); exit 1) fmt

(* --- trace checks ------------------------------------------------------- *)

(* The "traceEvents" array of the Chrome trace document at [path]. *)
let trace_events path =
  match Wire.parse (read_file path) with
  | Error m -> die "%s: trace does not parse as JSON (%s)" path m
  | Ok doc -> (
      match Option.bind (Wire.member "traceEvents" doc) Wire.to_list with
      | Some l -> l
      | None -> die "%s: no \"traceEvents\" array" path)

(* Field [k] of event [i] through the accessor [conv]; a missing or
   mistyped field is fatal. *)
let field conv path i ev k =
  match Option.bind (Wire.member k ev) conv with
  | Some v -> v
  | None -> die "%s: event %d: missing \"%s\"" path i k

let validate_trace path min_depth =
  let events = trace_events path in
  if events = [] then die "%s: empty trace" path;
  (* per-tid stack discipline *)
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some st -> st
    | None ->
        let st = ref [] in
        Hashtbl.add stacks tid st;
        st
  in
  let max_depth = ref 0 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i ev ->
      let str = field Wire.to_str path i ev and num = field Wire.to_float path i ev in
      let name = str "name" and ph = str "ph" in
      let ts = num "ts" and tid = int_of_float (num "tid") in
      ignore (num "pid");
      (match Hashtbl.find_opt last_ts tid with
      | Some prev when ts < prev ->
          die "%s: event %d: timestamps go backwards within tid %d" path i tid
      | _ -> Hashtbl.replace last_ts tid ts);
      let st = stack_of tid in
      match ph with
      | "B" ->
          if name = "sat.solve" && !st = [] then
            die "%s: event %d: \"sat.solve\" opens at depth 0 on tid %d (no parent span)"
              path i tid;
          st := name :: !st;
          max_depth := max !max_depth (List.length !st)
      | "E" -> (
          match !st with
          | top :: rest ->
              if top <> name then
                die "%s: event %d: E \"%s\" closes open span \"%s\" (tid %d)" path i name top
                  tid;
              st := rest
          | [] -> die "%s: event %d: E \"%s\" with no open span on tid %d" path i name tid)
      | ph -> die "%s: event %d: unexpected phase %S" path i ph)
    events;
  Hashtbl.iter
    (fun tid st ->
      if !st <> [] then
        die "%s: tid %d ends with %d unclosed span(s): %s" path tid (List.length !st)
          (String.concat " > " (List.rev !st)))
    stacks;
  if !max_depth < min_depth then
    die "%s: deepest nesting is %d span level(s), need >= %d" path !max_depth min_depth;
  Printf.printf "trace ok: %d events, max depth %d\n" (List.length events) !max_depth

(* --- prometheus checks --------------------------------------------------- *)

let validate_prometheus path =
  let content = read_file path in
  let lines = String.split_on_char '\n' content in
  let series = Hashtbl.create 256 in
  let types = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      if line <> "" then
        if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          let rest = String.sub line 7 (String.length line - 7) in
          let fam =
            match String.index_opt rest ' ' with
            | Some j -> String.sub rest 0 j
            | None -> die "%s: line %d: malformed # TYPE" path (i + 1)
          in
          if Hashtbl.mem types fam then
            die "%s: line %d: duplicate # TYPE for family %s" path (i + 1) fam;
          Hashtbl.add types fam ()
        end
        else if line.[0] = '#' then ()
        else begin
          (* sample line: <name>[{labels}] <value> — the series key is
             everything before the value *)
          let key =
            match String.rindex_opt line ' ' with
            | Some j -> String.sub line 0 j
            | None -> die "%s: line %d: malformed sample line" path (i + 1)
          in
          if Hashtbl.mem series key then
            die "%s: line %d: duplicate series %s" path (i + 1) key;
          Hashtbl.add series key ()
        end)
    lines;
  let has_family prefix =
    Hashtbl.fold
      (fun fam () acc ->
        acc
        || String.length fam >= String.length prefix
           && String.sub fam 0 (String.length prefix) = prefix)
      types false
  in
  List.iter
    (fun prefix ->
      if not (has_family prefix) then die "%s: missing metric family %s*" path prefix)
    [ "dfm_sat_"; "dfm_cache_"; "dfm_pool_"; "dfm_checkpoint_" ];
  Printf.printf "metrics ok: %d series, %d families\n" (Hashtbl.length series)
    (Hashtbl.length types)

(* --- streaming ("X" complete-event) trace checks ------------------------- *)

(* Streamed traces ([trace --follow], flight-recorder dumps) use
   self-contained "X" events: no bracketing requirement — a parent may land
   in a later batch than its children — but every event must be a complete,
   well-formed record, and the file as a whole must be a loadable Chrome
   trace at every instant. *)
let validate_complete_trace path min_events =
  let events = trace_events path in
  List.iteri
    (fun i ev ->
      let str = field Wire.to_str path i ev and num = field Wire.to_float path i ev in
      let ph = str "ph" in
      if ph <> "X" then die "%s: event %d: expected phase \"X\", got %S" path i ph;
      if str "name" = "" then die "%s: event %d: empty span name" path i;
      if num "ts" < 0.0 then die "%s: event %d: negative ts" path i;
      if num "dur" < 0.0 then die "%s: event %d: negative dur" path i;
      ignore (num "tid");
      ignore (num "pid"))
    events;
  if List.length events < min_events then
    die "%s: %d complete event(s), need >= %d" path (List.length events) min_events;
  Printf.printf "complete trace ok: %d events\n" (List.length events)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--complete"; trace ] -> validate_complete_trace trace 1
  | [ _; "--complete"; trace; min_events ] ->
      let m =
        match int_of_string_opt min_events with
        | Some m -> m
        | None -> die "MIN_EVENTS must be an integer, got %S" min_events
      in
      validate_complete_trace trace m
  | [ _; trace; metrics ] ->
      validate_trace trace 5;
      validate_prometheus metrics
  | [ _; trace; metrics; min_depth ] ->
      let d =
        match int_of_string_opt min_depth with
        | Some d -> d
        | None -> die "MIN_DEPTH must be an integer, got %S" min_depth
      in
      validate_trace trace d;
      validate_prometheus metrics
  | _ ->
      die
        "usage: obs_validate TRACE.json METRICS.prom [MIN_DEPTH] | obs_validate --complete \
         TRACE.json [MIN_EVENTS]"

(* Loopback smoke for the live-telemetry tier, driving the real CLI
   executable as a subprocess.  Four guarantees from the telemetry
   acceptance list:

   1. Transparency under streaming: with a span follower attached and a
      metrics subscriber polling, two concurrent tenants' analyze jobs
      (worker caps 1 and 4) still report byte-identically to the one-shot
      CLI.
   2. Per-tenant attribution reaches live subscribers: a streamed metrics
      frame carries tenant-labelled series.
   3. `trace --follow` produces a Chrome/Perfetto-loadable file (the dune
      rule validates it with obs_validate --complete afterwards).
   4. Flight recorder: cancelling a job mid-resynthesis dumps a
      post-mortem pair under the daemon state dir whose text names the
      cancelled job and the failing span stack; the `flight-dump`
      subcommand and SIGUSR2 both produce further dumps on demand.

   Usage: telemetry_smoke CLI_EXE NETLIST_FILE *)

module Client = Dfm_serve.Client
module Protocol = Dfm_serve.Protocol

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let pass fmt = Printf.ksprintf (fun s -> Printf.printf "ok   %s\n%!" s) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let sock_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dfm_tel_%d_%s.sock" (Unix.getpid ()) tag)

let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0

let spawn exe args ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) devnull out out in
  Unix.close out;
  pid

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

(* Bounded wait: Some exit-code if the child finished in time, None if it
   had to be killed. *)
let wait_exit_deadline pid ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (wait_exit pid);
          None
        end
        else begin
          Unix.sleepf 0.1;
          go ()
        end
    | _, Unix.WEXITED n -> Some n
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Some (-1)
  in
  go ()

let wait_ready sock =
  let rec go n =
    if n = 0 then failwith ("daemon never became ready on " ^ sock)
    else
      match Client.connect sock with
      | Ok c ->
          Client.close c;
          ()
      | Error _ ->
          Unix.sleepf 0.05;
          go (n - 1)
  in
  go 200

let start_daemon exe ~sock ~state ~log =
  let pid = spawn exe [ "serve"; "--socket"; sock; "--state-dir"; state; "-j"; "2" ] ~log in
  wait_ready sock;
  pid

let stop_daemon ~sock ~pid =
  (match Client.connect sock with
  | Ok c ->
      (match Client.request c Protocol.Drain with
      | Ok (Protocol.Drained _) -> ()
      | Ok _ | Error _ -> ());
      Client.close c
  | Error _ -> ());
  ignore (wait_exit pid)

let submit ?(jobs = 1) ~kind ~client ~name ~netlist sock =
  match Client.connect sock with
  | Error e -> Error e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.submit_and_wait c
            Protocol.
              {
                client;
                kind;
                name;
                netlist;
                limits = { Protocol.no_limits with jobs = Some jobs };
                static_filter = false;
                sat_mode = None;
                q_max = None;
                p1 = None;
              })

let dump_files state =
  let dir = Filename.concat state "flightrec" in
  if Sys.file_exists dir then
    Array.to_list (Sys.readdir dir) |> List.map (Filename.concat dir)
  else []

let dump_texts state =
  List.filter (fun f -> Filename.check_suffix f ".txt") (dump_files state)

let () =
  if Array.length Sys.argv <> 3 then begin
    prerr_endline "usage: telemetry_smoke CLI_EXE NETLIST_FILE";
    exit 2
  end;
  let exe = Sys.argv.(1) and netlist_file = Sys.argv.(2) in
  let netlist_text = read_file netlist_file in

  (* ---- reference: the one-shot CLI with no daemon, no telemetry ----- *)
  let rc =
    wait_exit
      (spawn exe [ "analyze"; netlist_file; "--jobs"; "1"; "--report"; "tel_oneshot.rep" ]
         ~log:"tel_oneshot.log")
  in
  if rc <> 0 then fail "one-shot analyze exited %d" rc;
  let reference = read_file "tel_oneshot.rep" in

  (* ---- 1-3. streaming daemon: follower + subscriber + two tenants --- *)
  let sock1 = sock_path "stream" in
  let pid1 = start_daemon exe ~sock:sock1 ~state:"tel_state1" ~log:"tel_daemon1.log" in
  (* the follower subscribes first, which turns span collection on before
     any job starts — its file must capture the campaigns that follow *)
  let tracer =
    spawn exe
      [ "trace"; "tel_trace.json"; "--follow"; "--batches"; "2"; "--socket"; sock1 ]
      ~log:"tel_trace_cli.log"
  in
  Unix.sleepf 0.3;
  let metrics_frames = ref [] in
  let metrics_thread =
    Thread.create
      (fun () ->
        match Client.connect sock1 with
        | Error e -> fail "metrics subscriber connect: %s" e
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                match
                  Client.subscribe_telemetry c
                    {
                      Protocol.t_spans = false;
                      t_metrics = true;
                      t_families = [ "dfm_" ];
                      t_interval_ms = Some 200;
                    }
                with
                | Error e -> fail "metrics subscribe: %s" e
                | Ok () ->
                    (* collect frames until one shows alpha's attribution
                       (bravo's job may run first, and its frames carry
                       only bravo's labels) or we have seen plenty *)
                    let rec go n =
                      if n > 0 then
                        match Client.next_telemetry c with
                        | Error e -> fail "metrics stream: %s" e
                        | Ok ("metrics", data) ->
                            metrics_frames := data :: !metrics_frames;
                            if not (contains data "tenant=\"alpha\"") then go (n - 1)
                        | Ok _ -> go n
                    in
                    go 100))
      ()
  in
  let outcomes = Hashtbl.create 4 in
  let m = Mutex.create () in
  let job_threads =
    List.map
      (fun (tenant, jobs) ->
        Thread.create
          (fun () ->
            let r =
              submit ~jobs ~kind:Protocol.Analyze ~client:tenant ~name:netlist_file
                ~netlist:netlist_text sock1
            in
            Mutex.protect m (fun () -> Hashtbl.replace outcomes tenant r))
          ())
      [ ("alpha", 1); ("bravo", 4) ]
  in
  List.iter Thread.join job_threads;
  List.iter
    (fun tenant ->
      match Hashtbl.find_opt outcomes tenant with
      | Some (Ok r) when r.Protocol.r_outcome = "done" ->
          if String.equal r.Protocol.r_report reference then
            pass "tenant %s report byte-identical to one-shot under live streaming" tenant
          else fail "tenant %s report differs under live streaming" tenant
      | Some (Ok r) -> fail "tenant %s outcome %s" tenant r.Protocol.r_outcome
      | Some (Error e) -> fail "tenant %s: %s" tenant e
      | None -> fail "tenant %s never reported" tenant)
    [ "alpha"; "bravo" ];
  Thread.join metrics_thread;
  if List.exists (fun f -> contains f "tenant=\"alpha\"") !metrics_frames then
    pass "streamed metrics frames carry tenant attribution (%d frames)"
      (List.length !metrics_frames)
  else fail "no streamed metrics frame carried a tenant label";
  (* small campaigns can finish inside one 0.25s pump window, giving the
     follower a single batch; feed it more work until it has both *)
  let tracer_status = ref None in
  let rec feed n =
    match Unix.waitpid [ Unix.WNOHANG ] tracer with
    | 0, _ ->
        if n > 0 then begin
          ignore
            (submit ~jobs:1 ~kind:Protocol.Analyze ~client:"charlie" ~name:netlist_file
               ~netlist:netlist_text sock1);
          Unix.sleepf 0.5;
          feed (n - 1)
        end
    | _, st -> tracer_status := Some st
  in
  feed 6;
  (match !tracer_status with
  | Some (Unix.WEXITED 0) -> pass "trace --follow collected its span batches and exited 0"
  | Some _ -> fail "trace --follow exited abnormally"
  | None -> (
      match wait_exit_deadline tracer ~seconds:15. with
      | Some 0 -> pass "trace --follow collected its span batches and exited 0"
      | Some n -> fail "trace --follow exited %d" n
      | None -> fail "trace --follow never finished (killed)"));
  let trace = try read_file "tel_trace.json" with Sys_error e -> fail "trace file: %s" e; "" in
  if contains trace "\"ph\":\"X\"" && contains trace "{\"traceEvents\":[" then
    pass "followed trace file is a Chrome trace of complete events"
  else fail "followed trace file malformed";

  (* on-demand dumps: the flight-dump subcommand, then SIGUSR2 *)
  let before = List.length (dump_files "tel_state1") in
  let rc = wait_exit (spawn exe [ "flight-dump"; "--socket"; sock1 ] ~log:"tel_dump_cli.log") in
  if rc = 0 && List.length (dump_files "tel_state1") > before then
    pass "flight-dump subcommand produced a dump pair"
  else fail "flight-dump subcommand failed (exit %d, %d -> %d files)" rc before
      (List.length (dump_files "tel_state1"));
  let before = List.length (dump_files "tel_state1") in
  Unix.kill pid1 Sys.sigusr2;
  let rec poll n =
    if List.length (dump_files "tel_state1") > before then
      pass "SIGUSR2 produced a dump pair"
    else if n = 0 then
      fail "SIGUSR2 produced no dump"
    else begin
      Unix.sleepf 0.2;
      poll (n - 1)
    end
  in
  poll 25;
  stop_daemon ~sock:sock1 ~pid:pid1;

  (* ---- 4. cancel mid-resynthesis -> automatic flight dump ----------- *)
  let spu =
    Dfm_netlist.Netlist_io.to_string (Dfm_circuits.Circuits.build ~scale:0.4 "sparc_spu")
  in
  let sock2 = sock_path "cancel" in
  let pid2 = start_daemon exe ~sock:sock2 ~state:"tel_state2" ~log:"tel_daemon2.log" in
  let victim = ref (Error "never ran") in
  let th =
    Thread.create
      (fun () ->
        victim :=
          submit ~jobs:2 ~kind:Protocol.Resynth ~client:"kilo" ~name:"sparc_spu"
            ~netlist:spu sock2)
      ()
  in
  (* Cancel only once the campaign runs: a queued job is cancelled without
     a flight dump, and a fixed sleep can outlast the whole campaign. *)
  let j1_state () =
    match Client.connect sock2 with
    | Error e -> "unreachable: " ^ e
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.request c (Protocol.Status (Some "J1")) with
            | Ok (Protocol.Status_report { jobs; _ }) -> (
                match List.find_opt (fun jv -> jv.Protocol.jv_id = "J1") jobs with
                | Some jv -> Protocol.state_to_string jv.Protocol.jv_state
                | None -> "not registered")
            | Ok _ -> "unexpected status response"
            | Error e -> "status: " ^ e)
  in
  let running = Protocol.state_to_string Protocol.Running in
  let rec wait_running n =
    let st = j1_state () in
    if st <> running then
      if n = 0 then fail "J1 never seen running within 10 s (last state: %s)" st
      else begin
        Unix.sleepf 0.02;
        wait_running (n - 1)
      end
  in
  wait_running 500;
  (match Client.connect sock2 with
  | Error e -> fail "cancel connect: %s" e
  | Ok c ->
      (match Client.request c (Protocol.Cancel "J1") with
      | Ok Protocol.Ok_resp -> ()
      | Ok (Protocol.Error_msg e) -> fail "cancel: %s" e
      | Ok _ -> fail "cancel: unexpected response"
      | Error e -> fail "cancel: %s" e);
      Client.close c);
  Thread.join th;
  (match !victim with
  | Ok r when r.Protocol.r_outcome = "cancelled" ->
      pass "resynth job cancelled mid-campaign"
  | Ok r -> fail "cancelled job reported outcome %s" r.Protocol.r_outcome
  | Error e -> fail "cancelled job: %s" e);
  let rec wait_dump n =
    match dump_texts "tel_state2" with
    | [] ->
        if n = 0 then begin
          fail "no flight dump after cancelling a running job";
          []
        end
        else begin
          Unix.sleepf 0.2;
          wait_dump (n - 1)
        end
    | files -> files
  in
  (match wait_dump 50 with
  | [] -> ()
  | files ->
      let text = String.concat "\n" (List.map read_file files) in
      if contains text "J1 cancelled" then pass "dump names the cancelled job"
      else fail "dump does not name the cancelled job";
      if contains text "failing span stack" && contains text "serve.job" then
        pass "dump contains the failing span stack"
      else fail "dump lacks the failing span stack");
  stop_daemon ~sock:sock2 ~pid:pid2;

  if !failures > 0 then begin
    Printf.printf "telemetry_smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "telemetry_smoke: all checks passed"

(* Loopback smoke for the serve daemon, driving the real CLI executable
   as a subprocess.  End-to-end guarantees from the campaign-service
   acceptance list:

   1. Determinism: a daemon-run analyze job is byte-identical to the
      one-shot CLI's [--report] output for the same committed netlist, at
      job worker caps 1 and 4.
   2. Hardening: a second daemon on the same socket refuses to start
      (exit 2) while the first is alive.
   3. Multi-tenancy: three concurrent clients share one verdict store —
      tenants that never populated the cache still observe hits.
   4. Resilience: a daemon SIGKILLed mid-resynthesis leaves a resumable
      per-job checkpoint; a restarted daemon re-runs the job and delivers
      a byte-identical report (same accepted ECO chain, same final
      netlist hash) to an uninterrupted run.
   5. Exhaustion + certification: a daemon started with injected
      EMFILE accept failures (serve.accept_emfile failpoint) and
      --certify never exits — it backs off, recovers, and the certified
      job's report is still byte-identical to the uncertified one-shot.
   6. Ledger recovery: a torn tail in the job ledger (a kill mid-append)
      and a torn append in a live daemon (serve.ledger failpoint) each
      lose at most the torn record — every job completed afterwards
      survives the next restart, keeps its report, and job ids are never
      reused.
   7. Protocol: a submission naming any SAT engine but the incremental
      one is refused with a one-line error and registers no job.

   Usage: serve_smoke CLI_EXE NETLIST_FILE *)

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

(* Socket paths must stay under the ~107-byte sun_path limit; dune
   sandboxes nest deep, so sockets live in the system temp dir while all
   persistent state stays inside the sandbox cwd. *)
let sock_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dfm_smoke_%d_%s.sock" (Unix.getpid ()) tag)

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

(* Wait until the daemon accepts connections (it unlinks/creates the
   socket and replays its ledger first; allow a generous grace). *)
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

let submit_analyze ?(jobs = 1) ?(static_filter = false) ?sat_mode ~client ~name ~netlist sock =
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
                kind = Analyze;
                name;
                netlist;
                limits = { Protocol.no_limits with jobs = Some jobs };
                static_filter;
                sat_mode;
                q_max = None;
                p1 = None;
              })

let submit_resynth ~client ~name ~netlist sock =
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
                kind = Resynth;
                name;
                netlist;
                limits = Protocol.no_limits;
                static_filter = false;
                sat_mode = None;
                q_max = None;
                p1 = None;
              })

let () =
  if Array.length Sys.argv <> 3 then begin
    prerr_endline "usage: serve_smoke CLI_EXE NETLIST_FILE";
    exit 2
  end;
  let exe = Sys.argv.(1) and netlist_file = Sys.argv.(2) in
  let netlist_text = read_file netlist_file in
  let sock1 = sock_path "main" in

  (* ---- 1. determinism against the one-shot CLI --------------------- *)
  let pid1 = start_daemon exe ~sock:sock1 ~state:"smoke_state1" ~log:"smoke_daemon1.log" in
  let rc =
    wait_exit
      (spawn exe [ "analyze"; netlist_file; "--jobs"; "1"; "--report"; "oneshot.rep" ]
         ~log:"smoke_oneshot.log")
  in
  if rc <> 0 then fail "one-shot analyze exited %d" rc;
  let reference = read_file "oneshot.rep" in
  List.iter
    (fun jobs ->
      match
        submit_analyze ~jobs ~client:"alpha" ~name:netlist_file ~netlist:netlist_text sock1
      with
      | Error e -> fail "submit (jobs=%d): %s" jobs e
      | Ok r ->
          if r.Protocol.r_outcome <> "done" then
            fail "analyze (jobs=%d) outcome %s" jobs r.Protocol.r_outcome
          else if not (String.equal r.Protocol.r_report reference) then
            fail "daemon report (jobs=%d) differs from one-shot --report" jobs
          else pass "daemon analyze (jobs=%d) byte-identical to one-shot CLI" jobs)
    [ 1; 4 ];

  (* ---- 2. duplicate daemon refuses with exit 2 --------------------- *)
  let dup =
    spawn exe
      [ "serve"; "--socket"; sock1; "--state-dir"; "smoke_state_dup" ]
      ~log:"smoke_dup.log"
  in
  (match wait_exit dup with
  | 2 -> pass "duplicate daemon on a live socket exits 2"
  | n -> fail "duplicate daemon exited %d, want 2" n);

  (* ---- 3. three tenants share one verdict store -------------------- *)
  let tenants = [ "alpha"; "bravo"; "charlie" ] in
  let outcomes = Hashtbl.create 4 in
  let m = Mutex.create () in
  let threads =
    List.map
      (fun t ->
        Thread.create
          (fun () ->
            let r =
              submit_analyze ~jobs:2 ~client:t ~name:netlist_file ~netlist:netlist_text
                sock1
            in
            Mutex.protect m (fun () -> Hashtbl.replace outcomes t r))
          ())
      tenants
  in
  List.iter Thread.join threads;
  List.iter
    (fun t ->
      match Hashtbl.find_opt outcomes t with
      | Some (Ok r) when r.Protocol.r_outcome = "done" -> ()
      | Some (Ok r) -> fail "tenant %s outcome %s" t r.Protocol.r_outcome
      | Some (Error e) -> fail "tenant %s: %s" t e
      | None -> fail "tenant %s never reported" t)
    tenants;
  (match Client.connect sock1 with
  | Error e -> fail "status connect: %s" e
  | Ok c ->
      (match Client.request c (Protocol.Status None) with
      | Ok (Protocol.Status_report { clients; _ }) ->
          let hits t =
            match List.find_opt (fun cv -> cv.Protocol.cv_client = t) clients with
            | Some cv -> cv.Protocol.cv_cache_hits
            | None -> -1
          in
          (* alpha warmed the store during the determinism runs; bravo and
             charlie never populated it, so any hits they see are
             cross-tenant by construction *)
          if hits "bravo" > 0 && hits "charlie" > 0 then
            pass "cross-tenant verdict sharing (bravo %d hits, charlie %d hits)"
              (hits "bravo") (hits "charlie")
          else fail "expected cross-tenant hits, got bravo %d charlie %d" (hits "bravo")
              (hits "charlie")
      | Ok _ -> fail "unexpected status response"
      | Error e -> fail "status: %s" e);
      Client.close c);

  (* The live Prometheus exposition must attribute engine work per tenant:
     every family below gets a {tenant=...} series for each tenant
     that did work, alongside the unlabeled base series. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let fetch_metrics sock =
    match Client.connect sock with
    | Error e ->
        fail "metrics connect: %s" e;
        ""
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.request c Protocol.Metrics with
            | Ok (Protocol.Metrics_text s) -> s
            | Ok _ ->
                fail "unexpected metrics response";
                ""
            | Error e ->
                fail "metrics: %s" e;
                "")
  in
  let prom = fetch_metrics sock1 in
  let attributed_families =
    [
      "dfm_atpg_sat_queries_total";
      "dfm_sat_conflicts_total";
      "dfm_cache_hits_total";
      "dfm_cache_misses_total";
    ]
  in
  (* a family has tenant attribution when some sample line of that family
     carries the tenant label (labels render canonically sorted, so the
     series reads fam{tenant="..."}) *)
  let has_attributed prom fam tenant =
    List.exists
      (fun line ->
        String.length line > String.length fam
        && String.sub line 0 (String.length fam) = fam
        && contains line (Printf.sprintf "tenant=\"%s\"" tenant))
      (String.split_on_char '\n' prom)
  in
  List.iter
    (fun tenant ->
      let missing =
        List.filter (fun fam -> not (has_attributed prom fam tenant)) attributed_families
      in
      if missing = [] then pass "per-tenant attribution for %s in live Prometheus" tenant
      else
        fail "tenant %s missing attributed series: %s" tenant (String.concat " " missing))
    [ "alpha"; "bravo" ];

  (* ---- 7. retired engine options are refused at submission --------- *)
  (match
     submit_analyze ~sat_mode:"oneshot" ~client:"delta" ~name:netlist_file
       ~netlist:netlist_text sock1
   with
  | Error "unknown sat mode \"oneshot\"" -> pass "sat_mode \"oneshot\" refused at submission"
  | Error e -> fail "sat_mode \"oneshot\": unexpected error %s" e
  | Ok r -> fail "sat_mode \"oneshot\" accepted (outcome %s)" r.Protocol.r_outcome);
  (match
     submit_analyze ~static_filter:true ~client:"delta" ~name:netlist_file
       ~netlist:netlist_text sock1
   with
  | Error "the static filter is gone; submit with static_filter false" ->
      pass "static_filter true refused at submission"
  | Error e -> fail "static_filter true: unexpected error %s" e
  | Ok r -> fail "static_filter true accepted (outcome %s)" r.Protocol.r_outcome);
  (match Client.connect sock1 with
  | Error e -> fail "status connect: %s" e
  | Ok c ->
      (match Client.request c (Protocol.Status None) with
      | Ok (Protocol.Status_report { jobs; _ }) ->
          if List.exists (fun jv -> jv.Protocol.jv_client = "delta") jobs then
            fail "refused submission registered a job"
          else pass "refused submission registered no job"
      | Ok _ -> fail "unexpected status response"
      | Error e -> fail "status: %s" e);
      Client.close c);
  stop_daemon ~sock:sock1 ~pid:pid1;

  (* ---- 5. EMFILE chaos + daemon-wide certify ----------------------- *)
  (* The failpoint rejects the first accepts as injected EMFILE; the
     daemon must shed/back off rather than exit, then serve the certified
     job whose report must still match the uncertified one-shot. *)
  let sock4 = sock_path "chaos" in
  let pid5 =
    spawn exe
      [
        "serve"; "--socket"; sock4; "--state-dir"; "smoke_state4"; "-j"; "2"; "--certify";
        "--failpoint"; "serve.accept_emfile=raise:times=3";
      ]
      ~log:"smoke_daemon4.log"
  in
  wait_ready sock4;
  (match
     submit_analyze ~jobs:1 ~client:"echo" ~name:netlist_file ~netlist:netlist_text sock4
   with
  | Ok r when r.Protocol.r_outcome = "done" && String.equal r.Protocol.r_report reference ->
      pass "daemon survived injected EMFILE; certified report byte-identical"
  | Ok r -> fail "chaos/certify analyze outcome %s" r.Protocol.r_outcome
  | Error e -> fail "chaos/certify analyze: %s" e);
  (* certified checks are attributable too *)
  let prom4 = fetch_metrics sock4 in
  if has_attributed prom4 "dfm_cert_checked_total" "echo" then
    pass "certified checks attributed to tenant echo"
  else fail "dfm_cert_checked_total has no tenant=\"echo\" series";
  stop_daemon ~sock:sock4 ~pid:pid5;

  (* ---- 4. SIGKILL mid-resynthesis, restart, identical report ------- *)
  (* The netlist is generated in-process and submitted as text, so both
     runs take the identical daemon path; sparc_spu at scale 0.4 runs a
     multi-second campaign, leaving a wide window to land the kill. *)
  let spu =
    Dfm_netlist.Netlist_io.to_string (Dfm_circuits.Circuits.build ~scale:0.4 "sparc_spu")
  in
  let sock2 = sock_path "ref" in
  let pid2 = start_daemon exe ~sock:sock2 ~state:"smoke_state2" ~log:"smoke_daemon2.log" in
  let reference =
    match submit_resynth ~client:"delta" ~name:"sparc_spu" ~netlist:spu sock2 with
    | Ok r when r.Protocol.r_outcome = "done" ->
        pass "uninterrupted resynth campaign (%d accepted)" r.Protocol.r_accepted;
        Some r.Protocol.r_report
    | Ok r ->
        fail "uninterrupted resynth outcome %s" r.Protocol.r_outcome;
        None
    | Error e ->
        fail "uninterrupted resynth: %s" e;
        None
  in
  stop_daemon ~sock:sock2 ~pid:pid2;
  (match reference with
  | None -> ()
  | Some reference ->
      let sock3 = sock_path "kill" in
      let pid3 =
        start_daemon exe ~sock:sock3 ~state:"smoke_state3" ~log:"smoke_daemon3.log"
      in
      let victim = ref (Error "never ran") in
      let th =
        Thread.create
          (fun () ->
            victim := submit_resynth ~client:"delta" ~name:"sparc_spu" ~netlist:spu sock3)
          ()
      in
      Unix.sleepf 1.0;
      Unix.kill pid3 Sys.sigkill;
      ignore (wait_exit pid3);
      Thread.join th;
      (match !victim with
      | Error _ -> pass "client connection died with the daemon"
      | Ok r ->
          (* the campaign outran the kill; the ledger then replays the
             finished result, which still must match *)
          pass "kill landed after completion (outcome %s) — replay must still match"
            r.Protocol.r_outcome);
      if not (Sys.file_exists "smoke_state3/jobs/J1/campaign.ckpt") then
        fail "no per-job checkpoint under the daemon state dir";
      let pid4 =
        start_daemon exe ~sock:sock3 ~state:"smoke_state3" ~log:"smoke_daemon3.log"
      in
      (match Client.connect sock3 with
      | Error e -> fail "reconnect after restart: %s" e
      | Ok c ->
          (match Client.await c "J1" with
          | Ok r when String.equal r.Protocol.r_report reference ->
              pass "restarted daemon resumed J1 with a byte-identical report"
          | Ok r ->
              fail "resumed report differs from uninterrupted run (outcome %s)"
                r.Protocol.r_outcome
          | Error e -> fail "await after restart: %s" e);
          Client.close c);
      stop_daemon ~sock:sock3 ~pid:pid4);

  (* ---- 6. ledger recovery across four daemon lives ---------------- *)
  let state5 = "smoke_state5" and sock5 = sock_path "ledger" in
  let failures_before = !failures in
  let life ?(failpoint = []) () =
    let pid =
      spawn exe
        ([ "serve"; "--socket"; sock5; "--state-dir"; state5; "-j"; "1" ] @ failpoint)
        ~log:"smoke_daemon5.log"
    in
    wait_ready sock5;
    pid
  in
  let run_job name =
    match submit_analyze ~client:"golf" ~name ~netlist:netlist_text sock5 with
    | Ok r when r.Protocol.r_outcome = "done" -> Some r
    | Ok r ->
        fail "ledger job %s outcome %s" name r.Protocol.r_outcome;
        None
    | Error e ->
        fail "ledger job %s: %s" name e;
        None
  in
  let expect_id name want = function
    | Some r when r.Protocol.r_job = want -> ()
    | Some r -> fail "job %s was named %s, want %s" name r.Protocol.r_job want
    | None -> ()
  in
  (* every listed job is done, and its awaited report is the one it first
     delivered *)
  let expect_history label done_jobs =
    match Client.connect sock5 with
    | Error e -> fail "%s: connect: %s" label e
    | Ok c ->
        (match Client.request c (Protocol.Status None) with
        | Ok (Protocol.Status_report { jobs; _ }) ->
            List.iter
              (fun (id, _) ->
                match List.find_opt (fun jv -> jv.Protocol.jv_id = id) jobs with
                | Some jv when jv.Protocol.jv_state = Protocol.Done -> ()
                | Some jv ->
                    fail "%s: %s is %s, want done" label id
                      (Protocol.state_to_string jv.Protocol.jv_state)
                | None -> fail "%s: status does not list %s" label id)
              done_jobs
        | Ok _ -> fail "%s: unexpected status response" label
        | Error e -> fail "%s: status: %s" label e);
        Client.close c;
        List.iter
          (fun (id, first) ->
            match (first, Client.connect sock5) with
            | None, _ -> ()
            | _, Error e -> fail "%s: connect: %s" label e
            | Some first, Ok c ->
                (match Client.await c id with
                | Ok r
                  when r.Protocol.r_job = id
                       && String.equal r.Protocol.r_report first.Protocol.r_report ->
                    ()
                | Ok r -> fail "%s: await %s delivered job %s's report" label id r.Protocol.r_job
                | Error e -> fail "%s: await %s: %s" label id e);
                Client.close c)
          done_jobs
  in
  (* life 1 completes J1; then a kill mid-append leaves half a record: a
     length prefix of 64 followed by only 16 payload bytes *)
  let pid = life () in
  let j1 = run_job "ledger-life1" in
  expect_id "ledger-life1" "J1" j1;
  stop_daemon ~sock:sock5 ~pid;
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644
    (Filename.concat state5 "ledger.bin") (fun oc ->
      output_string oc ("\x40\x00\x00\x00" ^ String.make 16 'x'));
  (* life 2 must compact the torn tail before appending J2 *)
  let pid = life () in
  let j2 = run_job "ledger-life2" in
  expect_id "ledger-life2" "J2" j2;
  stop_daemon ~sock:sock5 ~pid;
  (* life 3 sees both jobs and names the next one J3; the ledger append of
     J3's result is torn, so J4 is appended only after a re-open *)
  let pid = life ~failpoint:[ "--failpoint"; "serve.ledger=partial:after=1:times=1" ] () in
  expect_history "life 3" [ ("J1", j1); ("J2", j2) ];
  let j3 = run_job "ledger-life3a" in
  expect_id "ledger-life3a" "J3" j3;
  let j4 = run_job "ledger-life3b" in
  expect_id "ledger-life3b" "J4" j4;
  stop_daemon ~sock:sock5 ~pid;
  (* life 4: J3 lost its result record and runs again; J4, completed after
     the torn append, survived *)
  let pid = life () in
  expect_history "life 4" [ ("J1", j1); ("J2", j2); ("J4", j4) ];
  stop_daemon ~sock:sock5 ~pid;
  if !failures = failures_before then
    pass "ledger recovered from a torn tail and a torn append";

  if !failures > 0 then begin
    Printf.printf "serve_smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "serve_smoke: all checks passed"

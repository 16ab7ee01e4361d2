(* Tests for Dfm_util.Failpoint: scheduling (after/times), the action
   semantics of [hit], the CLI/env spec grammar, and determinism of the
   probabilistic gate. *)

module Failpoint = Dfm_util.Failpoint

let with_clean f =
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear f

let test_disarmed_is_silent () =
  with_clean @@ fun () ->
  Alcotest.(check bool) "inactive" false (Failpoint.any_active ());
  Failpoint.hit "nowhere";
  Alcotest.(check bool) "no action" true (Failpoint.check "nowhere" = None);
  Alcotest.(check int) "disarmed sites do not count" 0 (Failpoint.hit_count "nowhere")

let test_after_times_schedule () =
  with_clean @@ fun () ->
  Failpoint.enable ~after:2 ~times:3 "s" Failpoint.Raise;
  let fired = ref 0 in
  for _ = 1 to 10 do
    match Failpoint.check "s" with Some Failpoint.Raise -> incr fired | Some _ -> () | None -> ()
  done;
  Alcotest.(check int) "fires exactly [times] after [after]" 3 !fired;
  Alcotest.(check int) "every reach counted" 10 (Failpoint.hit_count "s");
  (* re-enabling resets the counters *)
  Failpoint.enable ~times:1 "s" Failpoint.Raise;
  Alcotest.(check bool) "fires again after re-enable" true (Failpoint.check "s" <> None);
  Alcotest.(check bool) "then exhausted" true (Failpoint.check "s" = None)

let test_hit_actions () =
  with_clean @@ fun () ->
  Failpoint.enable "r" Failpoint.Raise;
  (match Failpoint.hit "r" with
  | () -> Alcotest.fail "expected Injected"
  | exception Failpoint.Injected "r" -> ()
  | exception _ -> Alcotest.fail "wrong exception");
  Failpoint.enable "io" Failpoint.Io_error;
  (match Failpoint.hit "io" with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  (* a plain hit site treats Partial_write as an I/O error *)
  Failpoint.enable "pw" Failpoint.Partial_write;
  (match Failpoint.hit "pw" with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  Failpoint.enable "d" (Failpoint.Delay 0.0);
  Failpoint.hit "d" (* must return normally *)

let test_disable_and_clear () =
  with_clean @@ fun () ->
  Failpoint.enable "a" Failpoint.Raise;
  Failpoint.enable "b" Failpoint.Raise;
  Failpoint.disable "a";
  Alcotest.(check bool) "disabled site passive" true (Failpoint.check "a" = None);
  Alcotest.(check bool) "other still armed" true (Failpoint.check "b" <> None);
  Failpoint.clear ();
  Alcotest.(check bool) "clear disarms" false (Failpoint.any_active ())

let test_parse_grammar () =
  with_clean @@ fun () ->
  Alcotest.(check bool) "plain" true (Failpoint.parse "sat.solve=raise" = Ok ());
  Alcotest.(check bool) "options" true
    (Failpoint.parse "store.append=io:after=2:times=1" = Ok ());
  Alcotest.(check bool) "delay" true (Failpoint.parse "parallel.task=delay=0.25" = Ok ());
  Alcotest.(check bool) "prob+seed" true
    (Failpoint.parse "checkpoint.append=partial:prob=0.5:seed=7" = Ok ());
  List.iter
    (fun bad ->
      match Failpoint.parse bad with
      | Ok () -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "";
      "noequals";
      "sat.solve=frobnicate";
      "sat.solve=raise:after=x";
      "sat.solve=raise:bogus=1";
      "=raise";
      (* a site the program never passes would arm nothing *)
      "no.such.site=raise";
      "alloc.cap=raise";
    ];
  (* the parsed schedule actually drives the site *)
  let check () = Failpoint.check "store.append" in
  Alcotest.(check bool) "waits out after=2" true (check () = None);
  Alcotest.(check bool) "still waiting" true (check () = None);
  Alcotest.(check bool) "fires on third" true (check () = Some Failpoint.Io_error);
  Alcotest.(check bool) "times=1 exhausted" true (check () = None)

let test_prob_deterministic () =
  with_clean @@ fun () ->
  let run () =
    Failpoint.enable ~prob:0.5 ~seed:42 "p" Failpoint.Raise;
    List.init 64 (fun _ -> Failpoint.check "p" <> None)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same firing sequence" true (a = b);
  Alcotest.(check bool) "not all-fire" true (List.exists not a);
  Alcotest.(check bool) "not never-fire" true (List.exists Fun.id a);
  Failpoint.enable ~prob:0.5 ~seed:43 "p" Failpoint.Raise;
  let c = List.init 64 (fun _ -> Failpoint.check "p" <> None) in
  Alcotest.(check bool) "different seed, different sequence" true (a <> c)

let test_parse_env () =
  with_clean @@ fun () ->
  (* parse_env with the variable unset is a no-op Ok *)
  Unix.putenv "REPRO_FAILPOINTS" "";
  Alcotest.(check bool) "empty env ok" true (Failpoint.parse_env () = Ok ());
  Unix.putenv "REPRO_FAILPOINTS" "serve.conn=raise:times=1,serve.ledger=io";
  Alcotest.(check bool) "list parses" true (Failpoint.parse_env () = Ok ());
  Alcotest.(check bool) "first armed" true (Failpoint.check "serve.conn" <> None);
  Alcotest.(check bool) "second armed" true
    (Failpoint.check "serve.ledger" = Some Failpoint.Io_error);
  List.iter
    (fun bad ->
      Unix.putenv "REPRO_FAILPOINTS" bad;
      match Failpoint.parse_env () with
      | Ok () -> Alcotest.failf "accepted REPRO_FAILPOINTS=%S" bad
      | Error _ -> ())
    [ "broken"; "no.such.site=raise"; "sat.solve=raise,alloc.cap=raise" ];
  Unix.putenv "REPRO_FAILPOINTS" ""

let suite =
  [
    Alcotest.test_case "disarmed sites are free and silent" `Quick test_disarmed_is_silent;
    Alcotest.test_case "after/times schedule" `Quick test_after_times_schedule;
    Alcotest.test_case "hit actions" `Quick test_hit_actions;
    Alcotest.test_case "disable and clear" `Quick test_disable_and_clear;
    Alcotest.test_case "spec grammar" `Quick test_parse_grammar;
    Alcotest.test_case "probabilistic gate is seeded" `Quick test_prob_deterministic;
    Alcotest.test_case "REPRO_FAILPOINTS parsing" `Quick test_parse_env;
  ]

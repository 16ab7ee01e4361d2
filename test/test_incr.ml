(* Tests for dfm_incr: the verdict store (counters, FIFO eviction, disk
   round-trip and corruption recovery), cone signatures (determinism,
   id-independence, locality, parameter sensitivity), and the end-to-end
   invariant that a cache never changes a classification. *)

module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Atpg = Dfm_atpg.Atpg
module Rng = Dfm_util.Rng
module Store = Dfm_incr.Store
module Signature = Dfm_incr.Signature
module Cache = Dfm_incr.Cache
module Failpoint = Dfm_util.Failpoint

let lib = Dfm_cellmodel.Osu018.library
let table = lazy (Dfm_synth.Mapper.build_table lib)
let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 }

(* ------------------------------------------------------------------ *)
(* Store: counters and FIFO eviction                                   *)
(* ------------------------------------------------------------------ *)

let test_store_counters () =
  let s = Store.create ~capacity:3 () in
  Store.add s 1L Store.Detected;
  Store.add s 2L Store.Undetectable;
  Store.add s 1L Store.Undetectable;
  (* idempotent: the first verdict wins, no second store *)
  Alcotest.(check int) "stores after dup" 2 (Store.stats s).Store.stores;
  (match Store.find s 1L with
  | Some Store.Detected -> ()
  | _ -> Alcotest.fail "first verdict must win");
  Alcotest.(check bool) "miss" true (Store.find s 5L = None);
  Store.add s 3L Store.Detected;
  Store.add s 4L Store.Detected;
  (* capacity 3: the oldest entry (1L) was evicted *)
  Alcotest.(check int) "mem_size at capacity" 3 (Store.mem_size s);
  Alcotest.(check int) "one eviction" 1 (Store.stats s).Store.evictions;
  Alcotest.(check bool) "evicted FIFO" true (Store.find s 1L = None);
  Alcotest.(check bool) "youngest kept" true (Store.find s 4L = Some Store.Detected);
  let st = Store.stats s in
  Alcotest.(check int) "hits" 2 st.Store.hits;
  Alcotest.(check int) "misses" 2 st.Store.misses;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Store.hit_rate s)

(* ------------------------------------------------------------------ *)
(* Store: disk tier                                                    *)
(* ------------------------------------------------------------------ *)

let fresh_path () =
  let p = Filename.temp_file "dfm_verdicts" ".bin" in
  Sys.remove p;
  p

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let write_file path b len =
  let oc = open_out_bin path in
  output_bytes oc (Bytes.sub b 0 len);
  close_out oc

let sig_of_i i = Int64.of_int ((i * 7919) + 11)
let verdict_of_i i = if i mod 2 = 0 then Store.Detected else Store.Undetectable

let test_disk_round_trip () =
  let path = fresh_path () in
  let s = Store.create ~path () in
  for i = 0 to 19 do
    Store.add s (sig_of_i i) (verdict_of_i i)
  done;
  Store.close s;
  let s2 = Store.create ~path () in
  let st = Store.stats s2 in
  Alcotest.(check int) "loaded all" 20 st.Store.disk_loaded;
  Alcotest.(check int) "dropped none" 0 st.Store.disk_dropped;
  for i = 0 to 19 do
    Alcotest.(check bool)
      (Printf.sprintf "record %d survives" i)
      true
      (Store.find s2 (sig_of_i i) = Some (verdict_of_i i))
  done;
  Store.close s2;
  Sys.remove path

(* The ISSUE-mandated recovery scenario: write a valid cache file, truncate
   it mid-record AND flip a byte in another record, reopen — the engine
   must log, keep every intact record, drop the damaged ones, and leave a
   well-framed (compacted) file behind. *)
let test_disk_recovery () =
  let path = fresh_path () in
  let s = Store.create ~path () in
  for i = 0 to 19 do
    Store.add s (sig_of_i i) (verdict_of_i i)
  done;
  Store.close s;
  (* layout: 8-byte magic, then 21-byte records (4 len + 9 payload + 8 sum) *)
  let b = read_file path in
  Alcotest.(check int) "expected file size" (8 + (21 * 20)) (Bytes.length b);
  let flip_at = 8 + (21 * 5) + 6 (* inside record 5's signature bytes *) in
  Bytes.set_uint8 b flip_at (Bytes.get_uint8 b flip_at lxor 0xff);
  write_file path b (Bytes.length b - 10) (* truncate mid-record 19 *);
  let logged = ref [] in
  let s2 = Store.create ~path ~log:(fun m -> logged := m :: !logged) () in
  let st = Store.stats s2 in
  Alcotest.(check int) "kept the intact records" 18 st.Store.disk_loaded;
  Alcotest.(check int) "dropped corrupt + truncated" 2 st.Store.disk_dropped;
  Alcotest.(check bool) "recovery was logged" true (!logged <> []);
  Alcotest.(check bool) "corrupt record gone" true (Store.find s2 (sig_of_i 5) = None);
  Alcotest.(check bool) "truncated record gone" true (Store.find s2 (sig_of_i 19) = None);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d intact" i)
        true
        (Store.find s2 (sig_of_i i) = Some (verdict_of_i i)))
    [ 0; 4; 6; 18 ];
  (* appending after recovery must leave a clean, fully loadable log *)
  Store.add s2 (sig_of_i 100) Store.Undetectable;
  Store.close s2;
  let s3 = Store.create ~path () in
  let st3 = Store.stats s3 in
  Alcotest.(check int) "compacted file loads clean" 19 st3.Store.disk_loaded;
  Alcotest.(check int) "no drops after compaction" 0 st3.Store.disk_dropped;
  Alcotest.(check bool) "post-recovery append survived" true
    (Store.find s3 (sig_of_i 100) = Some Store.Undetectable);
  Store.close s3;
  Sys.remove path

(* A disk-tier write failure mid-campaign must not raise out of [add]:
   the store logs once, drops to memory-only, and keeps serving.  Only
   the records appended before the failure survive a reopen. *)
let test_disk_degrades_to_memory () =
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  let path = fresh_path () in
  let logged = ref [] in
  let s = Store.create ~path ~log:(fun m -> logged := m :: !logged) () in
  for i = 0 to 4 do
    Store.add s (sig_of_i i) (verdict_of_i i)
  done;
  Failpoint.enable "store.append" Failpoint.Io_error;
  for i = 5 to 9 do
    Store.add s (sig_of_i i) (verdict_of_i i) (* must not raise *)
  done;
  Alcotest.(check bool) "degraded" true (Store.stats s).Store.degraded;
  Alcotest.(check int) "degradation logged exactly once" 1 (List.length !logged);
  (* the memory tier is unaffected: every verdict is still served *)
  for i = 0 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "verdict %d served memory-only" i)
      true
      (Store.find s (sig_of_i i) = Some (verdict_of_i i))
  done;
  Store.close s;
  Failpoint.clear ();
  let s2 = Store.create ~path () in
  let st = Store.stats s2 in
  Alcotest.(check int) "only pre-failure records persisted" 5 st.Store.disk_loaded;
  Alcotest.(check bool) "post-failure record not on disk" true
    (Store.find s2 (sig_of_i 7) = None);
  Store.close s2;
  Sys.remove path

(* A torn (half-written) record degrades the writer, and the next open
   recovers the intact prefix, drops the torn tail, and compacts so later
   appends land on a well-framed log. *)
let test_disk_partial_write_recovery () =
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  let path = fresh_path () in
  let s = Store.create ~path () in
  Failpoint.enable ~after:3 "store.append" Failpoint.Partial_write;
  for i = 0 to 5 do
    Store.add s (sig_of_i i) (verdict_of_i i)
  done;
  (* records 0..2 appended cleanly, record 3 was torn mid-write *)
  Alcotest.(check bool) "torn write degrades the store" true
    (Store.stats s).Store.degraded;
  Store.close s;
  Failpoint.clear ();
  let logged = ref [] in
  let s2 = Store.create ~path ~log:(fun m -> logged := m :: !logged) () in
  let st = Store.stats s2 in
  Alcotest.(check int) "intact prefix recovered" 3 st.Store.disk_loaded;
  Alcotest.(check int) "torn tail dropped" 1 st.Store.disk_dropped;
  Alcotest.(check bool) "recovery logged" true (!logged <> []);
  Alcotest.(check bool) "torn record gone" true (Store.find s2 (sig_of_i 3) = None);
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "record %d intact" i)
      true
      (Store.find s2 (sig_of_i i) = Some (verdict_of_i i))
  done;
  Store.add s2 (sig_of_i 50) Store.Detected;
  Store.close s2;
  let s3 = Store.create ~path () in
  let st3 = Store.stats s3 in
  Alcotest.(check int) "compacted log loads clean" 4 st3.Store.disk_loaded;
  Alcotest.(check int) "no drops after compaction" 0 st3.Store.disk_dropped;
  Store.close s3;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Signatures                                                          *)
(* ------------------------------------------------------------------ *)

(* Two independent cones sharing nothing: an XOR over (a, b) and a second
   gate over (c, d), both observed.  [second] picks that gate's cell. *)
let two_cone_netlist ~pi_order ~second ~xor_first =
  let b = B.create ~name:"cones" lib in
  let pi = Hashtbl.create 4 in
  List.iter (fun name -> Hashtbl.replace pi name (B.add_pi b name)) pi_order;
  let n = Hashtbl.find pi in
  let add_xor () = B.add_gate b ~cell:"XOR2X1" [| n "a"; n "b" |] in
  let add_second () = B.add_gate b ~cell:second [| n "c"; n "d" |] in
  let ox, os =
    if xor_first then
      let ox = add_xor () in
      (ox, add_second ())
    else
      let os = add_second () in
      (add_xor (), os)
  in
  B.mark_po b "ox" ox;
  B.mark_po b "os" os;
  B.finish b

let net_of_cell nl cell =
  let found = ref None in
  Array.iter
    (fun (g : N.gate) -> if g.N.cell.Cell.name = cell then found := Some g.N.fanout)
    nl.N.gates;
  match !found with Some n -> n | None -> Alcotest.fail ("no gate " ^ cell)

let gate_of_cell nl cell =
  let found = ref None in
  Array.iter
    (fun (g : N.gate) -> if g.N.cell.Cell.name = cell then found := Some g.N.gate_id)
    nl.N.gates;
  match !found with Some g -> g | None -> Alcotest.fail ("no gate " ^ cell)

let stuck nl cell pol = { F.fault_id = 0; kind = F.Stuck (F.On_net (net_of_cell nl cell), pol); origin }

let test_signature_id_independence () =
  let params = Signature.default_params () in
  let nl_a = two_cone_netlist ~pi_order:[ "a"; "b"; "c"; "d" ] ~second:"NAND2X1" ~xor_first:true in
  (* same circuit, built in a different order: every gate id, net id and
     auto-generated internal net name differs *)
  let nl_b = two_cone_netlist ~pi_order:[ "c"; "d"; "a"; "b" ] ~second:"NAND2X1" ~xor_first:false in
  (* same construction as nl_a but the second cone's function changed *)
  let nl_c = two_cone_netlist ~pi_order:[ "a"; "b"; "c"; "d" ] ~second:"NOR2X1" ~xor_first:true in
  let sw_a = Signature.sweep nl_a and sw_b = Signature.sweep nl_b and sw_c = Signature.sweep nl_c in
  let sg sw nl cell pol = Signature.of_fault sw ~params (stuck nl cell pol) in
  Alcotest.(check int64) "renumbering-independent (xor cone)"
    (sg sw_a nl_a "XOR2X1" F.Sa0) (sg sw_b nl_b "XOR2X1" F.Sa0);
  Alcotest.(check int64) "renumbering-independent (second cone)"
    (sg sw_a nl_a "NAND2X1" F.Sa1) (sg sw_b nl_b "NAND2X1" F.Sa1);
  Alcotest.(check int64) "locality: untouched cone keeps its signature"
    (sg sw_a nl_a "XOR2X1" F.Sa0) (sg sw_c nl_c "XOR2X1" F.Sa0);
  Alcotest.(check bool) "changed cone changes signature" true
    (sg sw_a nl_a "NAND2X1" F.Sa0 <> sg sw_c nl_c "NOR2X1" F.Sa0);
  Alcotest.(check bool) "polarity is part of the key" true
    (sg sw_a nl_a "XOR2X1" F.Sa0 <> sg sw_a nl_a "XOR2X1" F.Sa1);
  (* internal faults travel too *)
  let internal nl = { F.fault_id = 0; kind = F.Internal (gate_of_cell nl "XOR2X1", 0); origin } in
  Alcotest.(check int64) "internal fault renumbering-independent"
    (Signature.of_fault sw_a ~params (internal nl_a))
    (Signature.of_fault sw_b ~params (internal nl_b))

let test_signature_determinism_and_params () =
  let nl = two_cone_netlist ~pi_order:[ "a"; "b"; "c"; "d" ] ~second:"NAND2X1" ~xor_first:true in
  let sw1 = Signature.sweep nl and sw2 = Signature.sweep nl in
  let params = Signature.default_params () in
  Array.iter
    (fun (nn : N.net) ->
      let f = { F.fault_id = 0; kind = F.Stuck (F.On_net nn.N.net_id, F.Sa0); origin } in
      Alcotest.(check int64)
        (Printf.sprintf "deterministic over net %d" nn.N.net_id)
        (Signature.of_fault sw1 ~params f)
        (Signature.of_fault sw2 ~params f))
    nl.N.nets;
  let f = stuck nl "XOR2X1" F.Sa0 in
  let bounded = Signature.default_params ~max_conflicts:10 () in
  Alcotest.(check bool) "max_conflicts is part of the key" true
    (Signature.of_fault sw1 ~params f <> Signature.of_fault sw1 ~params:bounded f)

(* ------------------------------------------------------------------ *)
(* Classification with a cache                                         *)
(* ------------------------------------------------------------------ *)

let random_netlist seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"rand" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  let cells = [| "INVX1"; "NAND2X1"; "NOR2X1"; "XOR2X1"; "AOI21X1"; "OAI21X1" |] in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let cname = Rng.pick rng cells in
    let c = Dfm_netlist.Library.find lib cname in
    let fanins = Array.init (Cell.arity c) (fun _ -> Rng.pick rng arr) in
    nets := B.add_gate b ~cell:cname fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 3 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

let all_faults nl =
  let faults = ref [] in
  let id = ref 0 in
  let add kind =
    faults := { F.fault_id = !id; kind; origin } :: !faults;
    incr id
  in
  Array.iter
    (fun (nn : N.net) ->
      List.iter (fun pol -> add (F.Stuck (F.On_net nn.N.net_id, pol))) [ F.Sa0; F.Sa1 ];
      List.iter
        (fun tr -> add (F.Transition (F.On_net nn.N.net_id, tr)))
        [ F.Slow_to_rise; F.Slow_to_fall ])
    nl.N.nets;
  Array.iteri
    (fun gid (g : N.gate) ->
      Array.iteri
        (fun pin _ ->
          List.iter (fun pol -> add (F.Stuck (F.On_pin (gid, pin), pol))) [ F.Sa0; F.Sa1 ])
        g.N.fanins;
      let u = Dfm_cellmodel.Udfm.for_cell g.N.cell.Cell.name in
      List.iteri
        (fun entry_idx _ -> if entry_idx < 4 then add (F.Internal (gid, entry_idx)))
        u.Dfm_cellmodel.Udfm.entries)
    nl.N.gates;
  Array.of_list (List.rev !faults)

let same_classification name (a : Atpg.classification) (b : Atpg.classification) =
  Alcotest.(check bool) (name ^ ": statuses identical") true (a.Atpg.status = b.Atpg.status);
  let ca = a.Atpg.counts and cb = b.Atpg.counts in
  Alcotest.(check int) (name ^ ": total") ca.Atpg.total cb.Atpg.total;
  Alcotest.(check int) (name ^ ": detected") ca.Atpg.detected cb.Atpg.detected;
  Alcotest.(check int) (name ^ ": undetectable") ca.Atpg.undetectable cb.Atpg.undetectable;
  Alcotest.(check int) (name ^ ": aborted") ca.Atpg.aborted cb.Atpg.aborted;
  Alcotest.(check int) (name ^ ": undetectable_internal") ca.Atpg.undetectable_internal
    cb.Atpg.undetectable_internal;
  Alcotest.(check int) (name ^ ": undetectable_external") ca.Atpg.undetectable_external
    cb.Atpg.undetectable_external

let test_classify_cache_identity () =
  let nl = random_netlist 97 4 12 in
  let faults = all_faults nl in
  let plain = Atpg.classify nl faults in
  let cache = Cache.create () in
  let cold = Atpg.classify ~cache nl faults in
  let warm = Atpg.classify ~cache nl faults in
  let sharded = Atpg.classify ~jobs:2 ~cache nl faults in
  same_classification "cold" plain cold;
  same_classification "warm" plain warm;
  same_classification "jobs=2 warm" plain sharded;
  Alcotest.(check int) "warm run needs no SAT" 0 warm.Atpg.counts.Atpg.sat_queries;
  Alcotest.(check bool) "cache saw hits" true ((Cache.stats cache).Store.hits > 0)

(* Two independent chains: replacing gates of the second leaves the
   first chain's fault cones, and so their verdicts, untouched. *)
let chains_netlist () =
  let b = B.create ~name:"chains" lib in
  let a = B.add_pi b "a" and bb = B.add_pi b "b" in
  let c = B.add_pi b "c" and d = B.add_pi b "d" in
  let x1 = B.add_gate b ~cell:"NAND2X1" [| a; bb |] in
  let x2 = B.add_gate b ~cell:"INVX1" [| x1 |] in
  let y1 = B.add_gate b ~cell:"NOR2X1" [| c; d |] in
  let y2 = B.add_gate b ~cell:"XOR2X1" [| y1; c |] in
  B.mark_po b "o1" x2;
  B.mark_po b "o2" y2;
  B.finish b

let test_classify_cache_across_replace () =
  let nl = chains_netlist () in
  let cache = Cache.create () in
  let _warmup = Atpg.classify ~cache nl (all_faults nl) in
  let hits_before = (Cache.stats cache).Store.hits in
  let region = [ gate_of_cell nl "NOR2X1"; gate_of_cell nl "XOR2X1" ] in
  let nl2 = Dfm_synth.Convert.remap_region nl ~gates:region ~table:(Lazy.force table) in
  let faults2 = all_faults nl2 in
  let plain2 = Atpg.classify nl2 faults2 in
  let warm2 = Atpg.classify ~cache nl2 faults2 in
  same_classification "after replace" plain2 warm2;
  Alcotest.(check bool) "untouched-chain verdicts were served from cache" true
    ((Cache.stats cache).Store.hits > hits_before)

let suite =
  [
    Alcotest.test_case "store counters and FIFO eviction" `Quick test_store_counters;
    Alcotest.test_case "disk round trip" `Quick test_disk_round_trip;
    Alcotest.test_case "disk corruption recovery" `Quick test_disk_recovery;
    Alcotest.test_case "disk failure degrades to memory-only" `Quick test_disk_degrades_to_memory;
    Alcotest.test_case "partial write recovered on reopen" `Quick test_disk_partial_write_recovery;
    Alcotest.test_case "signature id-independence and locality" `Quick test_signature_id_independence;
    Alcotest.test_case "signature determinism and params" `Quick test_signature_determinism_and_params;
    Alcotest.test_case "classify cache identity" `Quick test_classify_cache_identity;
    Alcotest.test_case "cache survives gate replacement" `Quick test_classify_cache_across_replace;
  ]

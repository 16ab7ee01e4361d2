module H = Dfm_util.Hash64
module Journal = Dfm_util.Journal

(* Registry-level cache metrics, aggregated across every store instance.
   The per-instance [stats] record below stays the source of truth for
   caller-visible accounting; these feed the Prometheus exposition. *)
let m_hits =
  Dfm_obs.Metrics.attributed_counter ~help:"Verdict-cache lookups that hit"
    "dfm_cache_hits_total"

let m_misses =
  Dfm_obs.Metrics.attributed_counter ~help:"Verdict-cache lookups that missed"
    "dfm_cache_misses_total"

let m_evictions =
  Dfm_obs.Metrics.counter ~help:"Verdict-cache FIFO evictions" "dfm_cache_evictions_total"

let m_disk_bytes =
  Dfm_obs.Metrics.counter ~help:"Bytes appended to the verdict-cache disk tier"
    "dfm_cache_disk_bytes_total"

let m_degraded =
  Dfm_obs.Metrics.gauge
    ~help:"1 when a verdict-store disk tier has degraded to memory-only"
    "dfm_store_degraded"

type verdict = Detected | Undetectable

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  disk_loaded : int;
  disk_dropped : int;
  degraded : bool;
}

type t = {
  lock : Mutex.t;
      (* Serializes every public entry point.  The engine still consults
         the store from its coordinating domain only, but the serve daemon
         reads [stats] from its network thread while the executor thread
         runs jobs — cross-thread reads of the mutable counters must not
         tear.  Uncontended in the one-shot CLI, so the cost is noise. *)
  tbl : (int64, verdict * bool) Hashtbl.t;  (* verdict, certified *)
  order : int64 Queue.t;  (* insertion order, for FIFO eviction *)
  capacity : int;
  mutable journal : Journal.t option;
  log : string -> unit;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable disk_loaded : int;
  mutable disk_dropped : int;
  mutable degraded : bool;
}

(* Degrade to memory-only: log once, close the journal best-effort, keep
   serving lookups and stores from the memory tier.  A failing disk tier
   (ENOSPC, EACCES, a closed fd, a yanked mount) must never raise out of a
   campaign — losing persistence is recoverable, losing hours of
   resynthesis is not. *)
let disable_disk t reason =
  (match t.journal with
  | None -> ()
  | Some j ->
      t.log (Printf.sprintf "cache: disk tier disabled (%s) — continuing memory-only" reason);
      Journal.close j;
      t.journal <- None);
  t.degraded <- true;
  Dfm_obs.Metrics.set m_degraded 1

(* ---- disk format ----------------------------------------------------
   A {!Dfm_util.Journal} whose record payload is u64le signature + 1 verdict
   byte; a certified record appends a u64le certificate mark — a keyed
   digest over the signature and the verdict, recomputed and compared on
   load, so a corrupted or hand-edited certified entry degrades to a miss
   rather than a wrongly trusted verdict. *)

let magic = "DFMVC02\n"

let verdict_code = function Detected -> 0 | Undetectable -> 1

let cert_mark sg v =
  H.finalize (H.mix (H.mix (H.of_string "DFMCERTv2") sg) (H.of_int (verdict_code v)))

let encode_record ~certified sg v =
  let b = Bytes.create (if certified then 17 else 9) in
  Bytes.set_int64_le b 0 sg;
  Bytes.set_uint8 b 8 (verdict_code v);
  if certified then Bytes.set_int64_le b 9 (cert_mark sg v);
  Bytes.unsafe_to_string b

(* [None] for a payload this codec did not write, or whose certificate
   mark does not match: the mark is derived from bytes that just
   checksummed clean, so a mismatch means the writer disagreed with us
   about the certificate scheme.  Such a record is dropped entirely. *)
let decode_record p =
  let n = String.length p in
  if n <> 9 && n <> 17 then None
  else
    let sg = String.get_int64_le p 0 in
    let verdict =
      match String.get_uint8 p 8 with 0 -> Some Detected | 1 -> Some Undetectable | _ -> None
    in
    match verdict with
    | Some v when n = 9 -> Some (sg, v, false)
    | Some v when String.get_int64_le p 9 = cert_mark sg v -> Some (sg, v, true)
    | Some _ | None -> None

(* ---- store ---------------------------------------------------------- *)

(* Returns whether the entry needs a disk append: a fresh signature always
   does; a known signature only when this add upgrades it from uncertified
   to certified (the verdict itself never changes — same signature, same
   semantic fact). *)
let adopt t ~certified sg v =
  match Hashtbl.find_opt t.tbl sg with
  | None ->
      Hashtbl.replace t.tbl sg (v, certified);
      Queue.push sg t.order;
      if Hashtbl.length t.tbl > t.capacity then begin
        Hashtbl.remove t.tbl (Queue.pop t.order);
        t.evictions <- t.evictions + 1;
        Dfm_obs.Metrics.incr m_evictions
      end;
      true
  | Some (v0, false) when certified && v0 = v ->
      Hashtbl.replace t.tbl sg (v0, true);
      true
  | Some _ -> false

let create ?(capacity = 1_000_000) ?path ?(log = fun m -> Dfm_obs.Log.warn m) () =
  let t =
    {
      lock = Mutex.create ();
      tbl = Hashtbl.create 4096;
      order = Queue.create ();
      capacity = max 1 capacity;
      journal = None;
      log;
      hits = 0;
      misses = 0;
      stores = 0;
      evictions = 0;
      disk_loaded = 0;
      disk_dropped = 0;
      degraded = false;
    }
  in
  (match path with
  | None -> ()
  | Some path -> (
      let l = Journal.load ~magic path in
      let kept =
        List.filter_map (fun p -> Option.map (fun r -> (p, r)) (decode_record p)) l.Journal.records
      in
      List.iter
        (fun (_, (sg, v, certified)) ->
          if adopt t ~certified sg v then t.disk_loaded <- t.disk_loaded + 1)
        kept;
      t.disk_dropped <- l.Journal.dropped + List.length l.Journal.records - List.length kept;
      if t.disk_dropped > 0 then
        log
          (Printf.sprintf
             "cache: recovered %s — kept %d record(s), dropped %d corrupted/truncated" path
             (List.length kept) t.disk_dropped);
      try
        t.journal <-
          Some
            (Journal.open_ ~sites:[ "store.enospc"; "store.append" ] ~magic
               ~keep:(List.map fst kept) l path)
      with Sys_error e ->
        log (Printf.sprintf "cache: disk tier disabled (%s) — continuing memory-only" e);
        t.degraded <- true));
  t

let find t sg =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.tbl sg with
  | Some (v, _) ->
      t.hits <- t.hits + 1;
      Dfm_obs.Metrics.incr_attr m_hits;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      Dfm_obs.Metrics.incr_attr m_misses;
      None

(* Certified lookup: only entries published by a certified run (and whose
   on-disk certificate mark validated on load) are visible; an uncertified
   entry is a miss, so certified campaigns recompute rather than trust it. *)
let find_certified t sg =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.tbl sg with
  | Some (v, true) ->
      t.hits <- t.hits + 1;
      Dfm_obs.Metrics.incr_attr m_hits;
      Some v
  | Some (_, false) | None ->
      t.misses <- t.misses + 1;
      Dfm_obs.Metrics.incr_attr m_misses;
      None

(* Disk appends pass two failpoint sites: [store.append] models an append
   dying mid-call (exception, OS error, torn write); [store.enospc] models
   the disk filling up — same degradation path, named separately so the
   chaos matrix can target disk-full specifically. *)
let add ?(certified = false) t sg v =
  Mutex.protect t.lock @@ fun () ->
  if adopt t ~certified sg v then begin
    t.stores <- t.stores + 1;
    match t.journal with
    | None -> ()
    | Some j -> (
        try
          let p = encode_record ~certified sg v in
          Journal.append j p;
          Dfm_obs.Metrics.incr ~by:(String.length p + Journal.overhead) m_disk_bytes
        with e -> disable_disk t (Printexc.to_string e))
  end

let mem_size t = Mutex.protect t.lock @@ fun () -> Hashtbl.length t.tbl

let stats t =
  Mutex.protect t.lock @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    stores = t.stores;
    evictions = t.evictions;
    disk_loaded = t.disk_loaded;
    disk_dropped = t.disk_dropped;
    degraded = t.degraded;
  }

let hit_rate t =
  Mutex.protect t.lock @@ fun () ->
  let n = t.hits + t.misses in
  if n = 0 then 0.0 else float_of_int t.hits /. float_of_int n

let close t =
  Mutex.protect t.lock @@ fun () ->
  Option.iter Journal.close t.journal;
  t.journal <- None

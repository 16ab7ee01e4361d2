type event = {
  name : string;
  begin_ns : int64;
  end_ns : int64;
  begin_seq : int;
  end_seq : int;
  tid : int;
  depth : int;
  attrs : (string * string) list;
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Flight recorder: a second, always-affordable consumer of the same span
   stream.  When on, every completed span is also written into a small
   per-domain ring that wraps instead of growing — the marginal cost over
   plain recording is one array store — so the most recent window can be
   snapshotted at any time (crash dump, SIGUSR2) without draining the
   export buffers or ever growing memory. *)
let recorder_flag = Atomic.make false
let set_recorder b = Atomic.set recorder_flag b
let recorder () = Atomic.get recorder_flag

let ring_capacity = 1024

let max_events_per_domain = 1_000_000
let dropped_total = Atomic.make 0
let dropped () = Atomic.get dropped_total

type open_span = {
  o_name : string;
  o_begin : int64;
  o_seq : int;
  o_depth : int;
  mutable o_attrs : (string * string) list;
}

type open_info = {
  oi_name : string;
  oi_begin_ns : int64;
  oi_depth : int;
  oi_attrs : (string * string) list;
}

let info_of_open o =
  { oi_name = o.o_name; oi_begin_ns = o.o_begin; oi_depth = o.o_depth;
    oi_attrs = List.rev o.o_attrs }

(* One of these per live domain, reached through DLS on the hot path and
   through the global registry at drain time.  The per-state mutex
   serializes the owning domain's appends against a concurrent drain; it is
   uncontended in steady state. *)
type dstate = {
  tid : int;
  lock : Mutex.t;
  mutable stack : open_span list;
  mutable events : event list;  (* reverse chronological *)
  mutable count : int;
  mutable seq : int;
      (* program-order tick, bumped at every span begin and end: the
         wall clock is too coarse to order fast spans, the sequence
         numbers always can *)
  ring : event option array;  (* flight-recorder window, circular *)
  mutable ring_pos : int;     (* next write slot *)
  mutable ring_count : int;   (* total ring writes ever *)
  mutable last_failure : open_info list;
      (* open-span stack captured at the innermost frame of the most
         recent exceptional unwind, innermost first *)
  mutable unwinding : bool;
}

(* Every state ever made, read by drain and the flight recorder, and the
   states of exited domains.  Batches spawn fresh domains: a new domain
   takes a free state, tid included, so the number of states is the peak
   number of live domains, not the number of domains ever spawned. *)
let states : dstate list ref = ref []
let free : dstate list ref = ref []
let states_mutex = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock states_mutex;
      let st =
        match !free with
        | st :: rest ->
            free := rest;
            st.unwinding <- false;
            st
        | [] ->
            let st =
              {
                tid = (Domain.self () :> int);
                lock = Mutex.create ();
                stack = [];
                events = [];
                count = 0;
                seq = 0;
                ring = Array.make ring_capacity None;
                ring_pos = 0;
                ring_count = 0;
                last_failure = [];
                unwinding = false;
              }
            in
            states := st :: !states;
            st
      in
      Mutex.unlock states_mutex;
      Domain.at_exit (fun () ->
          Mutex.lock states_mutex;
          free := st :: !free;
          Mutex.unlock states_mutex);
      st)

let push st name attrs =
  let depth = match st.stack with [] -> 0 | o :: _ -> o.o_depth + 1 in
  let seq = st.seq in
  st.seq <- seq + 1;
  st.stack <-
    { o_name = name; o_begin = Clock.now_ns (); o_seq = seq; o_depth = depth;
      o_attrs = attrs }
    :: st.stack

let pop st =
  match st.stack with
  | [] -> ()
  | o :: rest ->
      st.stack <- rest;
      let end_seq = st.seq in
      st.seq <- end_seq + 1;
      let ev =
        {
          name = o.o_name;
          begin_ns = o.o_begin;
          end_ns = Clock.now_ns ();
          begin_seq = o.o_seq;
          end_seq;
          tid = st.tid;
          depth = o.o_depth;
          attrs = List.rev o.o_attrs;
        }
      in
      Mutex.lock st.lock;
      if Atomic.get enabled_flag then begin
        if st.count < max_events_per_domain then begin
          st.events <- ev :: st.events;
          st.count <- st.count + 1
        end
        else ignore (Atomic.fetch_and_add dropped_total 1)
      end;
      if Atomic.get recorder_flag then begin
        st.ring.(st.ring_pos) <- Some ev;
        st.ring_pos <- (st.ring_pos + 1) mod ring_capacity;
        st.ring_count <- st.ring_count + 1
      end;
      Mutex.unlock st.lock

let with_ ?(attrs = []) name f =
  if not (Atomic.get enabled_flag || Atomic.get recorder_flag) then f ()
  else begin
    let st = Domain.DLS.get key in
    push st name attrs;
    match f () with
    | r ->
        st.unwinding <- false;
        pop st;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (* The innermost (first-unwound) frame owns the capture: outer
           frames of the same unwind see [unwinding] already set and leave
           the snapshot alone.  The flag clears on the next span that
           completes normally, so a later failure captures fresh. *)
        if not st.unwinding then begin
          st.unwinding <- true;
          st.last_failure <- List.map info_of_open st.stack
        end;
        pop st;
        Printexc.raise_with_backtrace e bt
  end

let note k v =
  if Atomic.get enabled_flag || Atomic.get recorder_flag then
    let st = Domain.DLS.get key in
    match st.stack with
    | [] -> ()
    | o :: _ -> o.o_attrs <- (k, v) :: o.o_attrs

let sort_events all =
  List.sort
    (fun a b ->
      match Int64.compare a.begin_ns b.begin_ns with
      | 0 -> (
          match compare a.tid b.tid with 0 -> compare a.begin_seq b.begin_seq | c -> c)
      | c -> c)
    all

let all_states () =
  Mutex.lock states_mutex;
  let sts = !states in
  Mutex.unlock states_mutex;
  sts

let drain () =
  let all =
    List.concat_map
      (fun st ->
        Mutex.lock st.lock;
        let evs = st.events in
        st.events <- [];
        st.count <- 0;
        Mutex.unlock st.lock;
        evs)
      (all_states ())
  in
  sort_events all

let recent () =
  let all =
    List.concat_map
      (fun st ->
        Mutex.lock st.lock;
        let n = min st.ring_count ring_capacity in
        let evs = ref [] in
        for i = 0 to n - 1 do
          (* walk backwards from the most recent write *)
          match st.ring.((st.ring_pos - 1 - i + (2 * ring_capacity)) mod ring_capacity)
          with
          | Some e -> evs := e :: !evs
          | None -> ()
        done;
        Mutex.unlock st.lock;
        !evs)
      (all_states ())
  in
  sort_events all

(* Open stacks and failure captures are read cross-thread without the
   owner's cooperation: the reads are racy by design (a flight-recorder
   dump must not block or perturb the engine) and may observe a stack
   mid-update, which is fine for a diagnostic snapshot. *)
let open_stacks () =
  List.filter_map
    (fun st ->
      match List.map info_of_open st.stack with [] -> None | l -> Some (st.tid, l))
    (all_states ())

let last_failures () =
  List.filter_map
    (fun st -> match st.last_failure with [] -> None | l -> Some (st.tid, l))
    (all_states ())

let reset () =
  ignore (drain ());
  List.iter
    (fun st ->
      Mutex.lock st.lock;
      Array.fill st.ring 0 ring_capacity None;
      st.ring_pos <- 0;
      st.ring_count <- 0;
      st.last_failure <- [];
      st.unwinding <- false;
      Mutex.unlock st.lock)
    (all_states ())

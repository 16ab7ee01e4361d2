module Journal = Dfm_util.Journal

type event = {
  ev_q : int;
  ev_phase : int;
  ev_cell : string option;
  ev_action : string;
  ev_u : int;
  ev_u_internal : int;
  ev_smax : int;
  ev_delay : float;
  ev_power : float;
}

type effort = {
  implement_calls : int;
  sat_queries : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  escalation_retries : int;
  aborted_residual : int;
}

type accept = {
  ev : event;
  netlist : string;
  region : int list;
  accepted : int;
  effort : effort;
  p2 : float;
}

type entry = Header of string | Event of event | Accept of accept

exception Error of string

type t = { mutable journal : Journal.t option }

(* Bumped with every change of the record layout, so older files fail the
   magic check and [attach] restarts them fresh instead of unmarshalling a
   mismatched layout. *)
let magic = "DFMCK05\n"

let m_frames =
  Dfm_obs.Metrics.counter ~help:"Checkpoint journal frames written"
    "dfm_checkpoint_frames_total"

(* Entries are pure data (ints, floats, strings, options), so [Marshal] is a
   faithful and exact encoding; the journal's checksum, not Marshal, is
   what defends against torn writes. *)
let encode (entry : entry) = Marshal.to_string entry []

(* Records are ordered, so only the intact prefix is usable; it ends early
   at the first payload Marshal rejects.  Each entry keeps its payload so
   the kept records are handed back to the journal byte for byte. *)
let decode_prefix payloads =
  let rec go acc = function
    | [] -> List.rev acc
    | p :: rest -> (
        match (Marshal.from_string p 0 : entry) with
        | e -> go ((p, e) :: acc) rest
        | exception _ -> List.rev acc)
  in
  go [] payloads

(* Keep the prefix up to and including the last Accept: the dropped tail is
   exactly the work the resumed campaign re-derives deterministically. *)
let truncate_to_last_accept entries =
  let rec last i best = function
    | [] -> best
    | (_, Accept _) :: tl -> last (i + 1) (i + 1) tl
    | (_, (Header _ | Event _)) :: tl -> last (i + 1) best tl
  in
  let n = last 0 0 entries in
  List.filteri (fun i _ -> i < n) entries

let attach ?(resume = true) ~header path =
  let loaded = Journal.load ~magic path in
  let open_ keep =
    { journal = Some (Journal.open_ ~sites:[ "checkpoint.append" ] ~magic ~keep loaded path) }
  in
  let entries = if resume then decode_prefix (Journal.intact_prefix loaded) else [] in
  if resume && loaded.Journal.dropped > 0 then
    Dfm_obs.Log.warn
      (Printf.sprintf "checkpoint: recovered %s — dropped %d damaged record(s)" path
         loaded.Journal.dropped);
  match entries with
  | (hp, Header h) :: rest ->
      if h <> header then
        raise
          (Error
             (Printf.sprintf "checkpoint %s was written by a different run configuration" path));
      let kept = truncate_to_last_accept rest in
      (open_ (hp :: List.map fst kept), List.map snd kept)
  | _ ->
      (* fresh campaign, or an empty or headerless journal: start over *)
      (open_ [ encode (Header header) ], [])

let append t entry =
  match t.journal with
  | None -> raise (Error "checkpoint: journal is closed")
  | Some j ->
      Journal.append j (encode entry);
      Journal.flush j;
      Dfm_obs.Metrics.incr m_frames

let append_event t ev = append t (Event ev)
let append_accept t a = append t (Accept a)

let close t =
  Option.iter Journal.close t.journal;
  t.journal <- None

(** The campaign service: a long-running daemon accepting concurrent
    analyze / resynth / lint jobs from multiple clients over a
    Unix-domain socket.

    Architecture (two threads):

    - The {b network thread} (the caller of {!run}) owns the listening
      socket and every connection: a [select] loop reads framed requests,
      flushes buffered responses to writable sockets, and accepts new
      clients.  It never runs engine code, so the daemon stays responsive
      while a campaign grinds.
    - The {b executor thread} runs jobs strictly one at a time — the
      engines' coordinator state (verdict cache consultation, incremental
      SAT sessions) is single-domain by design, so concurrency between
      jobs lives in the {e queue}, not in the engines.  Each job's
      classification still fans its SAT blocks out over
      {!Dfm_util.Parallel.run}, on at most the job's [jobs] limit clamped
      to the daemon's own [jobs] domains, which live for one batch.
    - Fair-share ordering between clients is {!Scheduler}'s: the pending
      job of the least-served client runs next.

    One verdict {!Dfm_incr.Cache} (backed by [<state>/cache/]) serves
    every job's {!Dfm_core.Design.implement} of every client (a resynth
    campaign's candidates carry their parent's verdicts instead);
    per-client hit/miss deltas are accounted around each job.  A second tenant analyzing the same block gets the
    first tenant's verdicts for free — the cross-campaign cache-hit
    assertion in the serve smoke test.

    Durability: every accepted submit and every completion is appended to
    [<state>/ledger.bin], a {!Dfm_util.Journal} of JSON protocol records
    (the format and recovery rules are described there), flushed per
    record and passing the [serve.ledger] failpoint site.  Records are
    ordered, so a restart replays only the intact prefix and compacts the
    rest away; after a failed append the journal is re-opened (and so
    compacted) before the next one.  Each resynth job journals accepted
    design points to [<state>/jobs/<id>/campaign.ckpt].  A daemon killed
    mid-campaign and restarted on the same state dir re-enqueues the
    incomplete jobs and resumes each resynth from its journal — same
    accepted ECO chain, same final result, as the kill/restart test
    proves.

    Determinism: a job's report is byte-identical to the equivalent
    one-shot CLI run ([analyze --report], at any [jobs] value), because
    both sides call the same {!Dfm_core.Report} builders on the same
    engine results, and no engine result depends on [jobs]. *)

type config = {
  socket_path : string;
  state_dir : string;   (** ledger, shared verdict cache, per-job journals *)
  jobs : int;           (** default and maximum per-job worker cap *)
  certify : bool;
      (** run every job certified: verdicts verified against independent
          certificates ({!Dfm_core.Design.implement}), ECOs against checked
          equivalence proofs ({!Dfm_core.Resynth.run}), cache hits against
          their stored marks.  Reports stay byte-identical to uncertified
          runs; a failed check fails that one job, never the daemon *)
}

exception Startup_error of string
(** Raised by {!run} before serving begins: another daemon owns the
    socket, the state dir cannot be created, the ledger is unopenable.
    The CLI maps it to exit 2. *)

val run : ?on_ready:(unit -> unit) -> config -> int
(** Serve until a [drain] request completes the queue.  [on_ready] fires
    once the socket is listening (the in-process bench uses it).  Returns
    the number of jobs completed over the daemon's lifetime.

    Resource exhaustion: an [accept] failing with EMFILE/ENFILE (chaos-
    injectable via the [serve.accept_emfile] failpoint) never exits the
    daemon — it sheds the oldest idle event-stream connection (the job
    result stays awaitable by id) and pauses accepting for a bounded
    exponentially growing backoff (50ms … 1s), counted on
    [dfm_serve_accept_backoffs_total] / [dfm_serve_conns_shed_total]. *)

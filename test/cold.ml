(* Cold per-fault reference for the incremental SAT engine: every query
   runs on a fresh single-use [Encode] session, so no verdict can depend on
   what an earlier query left in the solver. *)

module Atpg = Dfm_atpg.Atpg
module Encode = Dfm_atpg.Encode

let check ?max_conflicts ls f = Encode.check_incr ?max_conflicts (Encode.make_session ls) f

(* The cold verdict of every fault, in [faults] order.  Unlike [classify]
   there is no random-pattern phase: each fault gets its own SAT query. *)
let statuses nl faults =
  let ls = Dfm_sim.Logic_sim.prepare nl in
  Array.map
    (fun f ->
      match check ls f with
      | Encode.Tests _ -> Atpg.Detected
      | Encode.Undetectable -> Atpg.Undetectable
      | Encode.Unknown -> Atpg.Aborted)
    faults

(* QCheck arbitraries shared by the suites. *)

(* The integers of [lo, hi], like [QCheck.int_range lo hi], but shrinking
   inside that range: [int_range]'s shrinker heads for 0 whatever [lo] is,
   so a failing property could report a value its generator never
   produces. *)
let int_range lo hi = QCheck.map ~rev:(fun x -> x - lo) (( + ) lo) (QCheck.int_bound (hi - lo))

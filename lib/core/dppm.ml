module F = Dfm_faults.Fault
module Defect = Dfm_cellmodel.Defect
module Atpg = Dfm_atpg.Atpg

(* Occurrence probability per uncovered site of each guideline category,
   in ppm. *)
let rate_of = function Defect.Via -> 12.0 | Defect.Metal -> 6.0 | Defect.Density -> 3.0

let undetectable_sites (d : Design.t) =
  let faults = d.Design.fault_list.Dfm_guidelines.Translate.faults in
  Array.to_list faults
  |> List.filter (fun (f : F.t) ->
         d.Design.classification.Atpg.status.(f.F.fault_id) = Atpg.Undetectable)

let escapes_dppm d =
  let survive =
    List.fold_left
      (fun acc (f : F.t) -> acc *. (1.0 -. (rate_of f.F.origin.F.category /. 1.0e6)))
      1.0 (undetectable_sites d)
  in
  1.0e6 *. (1.0 -. survive)

let breakdown d =
  let sites = undetectable_sites d in
  List.map
    (fun cat ->
      let mine = List.filter (fun (f : F.t) -> f.F.origin.F.category = cat) sites in
      let n = List.length mine in
      (Defect.category_to_string cat, n, float_of_int n *. rate_of cat))
    [ Defect.Via; Defect.Metal; Defect.Density ]

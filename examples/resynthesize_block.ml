(* The full Section III procedure on an OpenSPARC-style block, with the
   Fig. 2 trajectory printed as the clusters break apart.

   Run with:  dune exec examples/resynthesize_block.exe [-- circuit] *)

module N = Dfm_netlist.Netlist
module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Report = Dfm_core.Report

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "sparc_ffu" in
  let nl = Dfm_circuits.Circuits.build name in
  Format.printf "implementing %a@." N.pp_summary nl;
  let d0 = Design.implement nl in
  Format.printf "original:      %a@.@." Design.pp_metrics (Design.metrics d0);

  Format.printf "running the two-phase resynthesis (p1 = 1%%, q swept 0..5)...@.";
  Dfm_obs.Log.set_level Dfm_obs.Log.Info;
  Dfm_obs.Log.set_sink (Some (fun r -> Format.printf "  %s@." r.Dfm_obs.Log.message));
  let r = Resynth.run d0 in

  Format.printf "@.trajectory (Fig. 2): the largest cluster first, then the whole circuit@.";
  List.iter
    (fun (p : Report.fig2_point) ->
      Format.printf "  step %2d  q=%d  phase %d   U=%5d   |Smax|=%5d@." p.Report.step p.Report.q
        p.Report.phase p.Report.u p.Report.smax_size)
    (Report.fig2_series r);

  Format.printf "@.resynthesized: %a@." Design.pp_metrics (Design.metrics r.Resynth.final);
  Format.printf "accepted steps: %d, synthesis+PD+ATPG iterations: %d@." r.Resynth.accepted
    r.Resynth.effort.Resynth.implement_calls;
  let _, resyn = Report.table2_rows ~name r in
  Format.printf "runtime: %.1fs, Rtime %.1f (in units of one synthesis+PD+ATPG iteration)@."
    r.Resynth.elapsed_s resyn.Report.rtime;

  (* What changed in the cell mix: the big stacks near the clusters are
     gone, replaced by small cells with weak activation conditions. *)
  let count nl name = try List.assoc name (N.cell_counts nl) with Not_found -> 0 in
  Format.printf "@.cell mix changes (instances, original -> resynthesized):@.";
  List.iter
    (fun c ->
      let a = count nl c and b = count r.Resynth.final.Design.netlist c in
      if a <> b then Format.printf "  %-10s %4d -> %4d@." c a b)
    (List.map (fun (c : Dfm_netlist.Cell.t) -> c.Dfm_netlist.Cell.name)
       (Resynth.cells_by_internal_faults nl.N.library));

  match Dfm_atpg.Equiv_sat.check nl r.Resynth.final.Design.netlist with
  | Dfm_atpg.Equiv_sat.Equivalent -> Format.printf "@.function preserved (SAT-proven).@."
  | _ -> Format.printf "@.ERROR: function changed!@."

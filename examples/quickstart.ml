(* Quickstart: build a small circuit by hand, implement it through the whole
   pipeline (placement, routing, DFM scan, ATPG, clustering), and run the
   paper's resynthesis procedure on it.

   Run with:  dune exec examples/quickstart.exe *)

module N = Dfm_netlist.Netlist
module B = N.Builder
module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth

let lib = Dfm_cellmodel.Osu018.library

(* A deliberately flawed design: a one-hot pair (sel, not sel) feeds several
   wide cells, so the cell-input patterns requiring both lines high can never
   be set up.  The internal (UDFM) faults needing those patterns are
   undetectable and cluster around the pair — a miniature of the phenomenon
   the paper studies. *)
let build_demo () =
  let b = B.create ~name:"demo" lib in
  let sel = B.add_pi b "sel" in
  let d = Array.init 6 (fun i -> B.add_pi b (Printf.sprintf "d%d" i)) in
  let nsel = B.add_gate b ~cell:"INVX1" [| sel |] in
  (* the redundancy pocket: cells combining sel with (not sel) *)
  let p1 = B.add_gate b ~cell:"NAND4X1" [| sel; nsel; d.(0); d.(1) |] in
  let p2 = B.add_gate b ~cell:"AOI22X1" [| sel; nsel; d.(2); d.(3) |] in
  let p3 = B.add_gate b ~cell:"NOR4X1" [| sel; nsel; d.(4); d.(5) |] in
  (* healthy datapath around it *)
  let x1 = B.add_gate b ~cell:"XOR2X1" [| d.(0); d.(3) |] in
  let x2 = B.add_gate b ~cell:"AND2X2" [| x1; d.(5) |] in
  let m = B.add_gate b ~cell:"MUX2X1" [| x2; p1; sel |] in
  let o1 = B.add_gate b ~cell:"OAI21X1" [| p2; p3; m |] in
  let reg = B.add_gate b ~cell:"DFFPOSX1" [| o1 |] in
  let o2 = B.add_gate b ~cell:"NAND2X1" [| reg; x1 |] in
  B.mark_po b "y0" o2;
  B.mark_po b "y1" m;
  B.finish b

let () =
  let nl = build_demo () in
  Format.printf "netlist: %a@.@." N.pp_summary nl;

  (* Full implementation: floorplan at 70%% utilization, placement, routing,
     DFM guideline scan, fault translation, ATPG with UNSAT proofs. *)
  let d0 = Design.implement nl in
  Format.printf "original design:@.  %a@.@." Design.pp_metrics (Design.metrics d0);

  List.iteri
    (fun i cluster ->
      if i < 3 then
        Format.printf "  cluster %d: %d undetectable faults@." i (List.length cluster))
    d0.Design.cluster.Dfm_core.Cluster.clusters;

  (* The paper's procedure: break the clusters without growing delay/power
     beyond q%% or the die beyond the original floorplan. *)
  Format.printf "@.running two-phase resynthesis (q swept 0..5) ...@.";
  Dfm_obs.Log.set_level Dfm_obs.Log.Info;
  Dfm_obs.Log.set_sink (Some (fun r -> Format.printf "  %s@." r.Dfm_obs.Log.message));
  let r = Resynth.run d0 in
  Format.printf "@.resynthesized design:@.  %a@.@." Design.pp_metrics
    (Design.metrics r.Resynth.final);

  (* The rewrite is verified, not assumed. *)
  (match Dfm_atpg.Equiv_sat.check nl r.Resynth.final.Design.netlist with
  | Dfm_atpg.Equiv_sat.Equivalent -> Format.printf "function preserved (SAT-proven).@."
  | _ -> Format.printf "ERROR: function changed!@.");
  Format.printf "cells now used: %s@."
    (String.concat " "
       (List.map
          (fun (c, n) -> Printf.sprintf "%s:%d" c n)
          (N.cell_counts r.Resynth.final.Design.netlist)))

(* The committed example netlists (examples/netlists), found from the test
   binary's build directory or from the repository root. *)
let netlist file =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "../examples/netlists" file; Filename.concat "examples/netlists" file ]
  in
  Dfm_netlist.Netlist_io.read_file ~library:Dfm_cellmodel.Osu018.library path

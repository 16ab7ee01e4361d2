(* Every encoder takes an optional activation literal [?act]; when given,
   each emitted clause is guarded as [¬act ∨ C], so the whole encoding is
   active only while [act] is assumed (see [Solver.retire]). *)

let cl s act lits =
  match act with
  | None -> Solver.add_clause s lits
  | Some a -> Solver.add_clause s (-a :: lits)

let const_true ?act s l = cl s act [ l ]
let const_false ?act s l = cl s act [ -l ]

let not_ ?act s ~out a =
  cl s act [ -out; -a ];
  cl s act [ out; a ]

let and_ ?act s ~out = function
  | [] -> const_true ?act s out
  | ins ->
      List.iter (fun i -> cl s act [ -out; i ]) ins;
      cl s act (out :: List.map (fun i -> -i) ins)

let or_ ?act s ~out = function
  | [] -> const_false ?act s out
  | ins ->
      List.iter (fun i -> cl s act [ out; -i ]) ins;
      cl s act (-out :: ins)

let xor_ ?act s ~out a b =
  cl s act [ -out; a; b ];
  cl s act [ -out; -a; -b ];
  cl s act [ out; -a; b ];
  cl s act [ out; a; -b ]

let mux ?act s ~out ~sel a b =
  (* sel = 0 -> out = a; sel = 1 -> out = b *)
  cl s act [ sel; -out; a ];
  cl s act [ sel; out; -a ];
  cl s act [ -sel; -out; b ];
  cl s act [ -sel; out; -b ]

let of_truthtable ?act s ~out ins tt =
  let n = Dfm_logic.Truthtable.arity tt in
  if Array.length ins <> n then invalid_arg "Tseitin.of_truthtable";
  (* For each assignment, add a clause forcing [out] to the function value:
     (/\ lits of the assignment) -> out = value, i.e. a clause with the
     negated assignment literals plus [out] or [-out]. *)
  for m = 0 to (1 lsl n) - 1 do
    let antecedent =
      List.init n (fun k -> if (m lsr k) land 1 = 1 then -ins.(k) else ins.(k))
    in
    let v = Dfm_logic.Truthtable.eval_index tt m in
    cl s act ((if v then out else -out) :: antecedent)
  done

type lit = int

type node_kind = Const0 | Input of string | And of lit * lit

type t = {
  mutable nodes : node_kind array;
  mutable n : int;
  strash : (int * int, int) Hashtbl.t;
  mutable input_list : (string * lit) list;  (* reversed *)
  input_tbl : (string, lit) Hashtbl.t;
}

let lit_false = 0
let lit_true = 1

let node_of_lit l = l lsr 1
let is_complemented l = l land 1 = 1
let mk_lit n c = (n lsl 1) lor (if c then 1 else 0)
let not_ l = l lxor 1

let create () =
  let t =
    {
      nodes = Array.make 1024 Const0;
      n = 1;
      strash = Hashtbl.create 4096;
      input_list = [];
      input_tbl = Hashtbl.create 64;
    }
  in
  t.nodes.(0) <- Const0;
  t

let alloc t k =
  if t.n = Array.length t.nodes then begin
    let bigger = Array.make (2 * t.n) Const0 in
    Array.blit t.nodes 0 bigger 0 t.n;
    t.nodes <- bigger
  end;
  let id = t.n in
  t.nodes.(id) <- k;
  t.n <- id + 1;
  id

let input t name =
  match Hashtbl.find_opt t.input_tbl name with
  | Some l -> l
  | None ->
      let l = mk_lit (alloc t (Input name)) false in
      Hashtbl.add t.input_tbl name l;
      t.input_list <- (name, l) :: t.input_list;
      l

let and_ t a b =
  let a, b = if a < b then (a, b) else (b, a) in
  if a = lit_false then lit_false
  else if a = lit_true then b
  else if a = b then a
  else if a = not_ b then lit_false
  else
    match Hashtbl.find_opt t.strash (a, b) with
    | Some id -> mk_lit id false
    | None ->
        let id = alloc t (And (a, b)) in
        Hashtbl.add t.strash (a, b) id;
        mk_lit id false

let or_ t a b = not_ (and_ t (not_ a) (not_ b))

let xor_ t a b = or_ t (and_ t a (not_ b)) (and_ t (not_ a) b)

let mux t ~sel a b = or_ t (and_ t sel b) (and_ t (not_ sel) a)

let and_list t = List.fold_left (and_ t) lit_true

let or_list t = List.fold_left (or_ t) lit_false

let num_nodes t = t.n

let inputs t = List.rev t.input_list

let kind t i = t.nodes.(i)

let eval t env l =
  let memo = Hashtbl.create 64 in
  let rec node v =
    match Hashtbl.find_opt memo v with
    | Some b -> b
    | None ->
        let b =
          match t.nodes.(v) with
          | Const0 -> false
          | Input name -> env name
          | And (x, y) -> lit x && lit y
        in
        Hashtbl.add memo v b;
        b
  and lit l =
    let b = node (node_of_lit l) in
    if is_complemented l then not b else b
  in
  lit l

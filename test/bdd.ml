module Truthtable = Dfm_logic.Truthtable

type t = int
(* Node ids: 0 = terminal false, 1 = terminal true, >= 2 internal. *)

type node = { v : int; lo : int; hi : int }

type man = {
  mutable nodes : node array;
  mutable n : int;
  unique : (int * int * int, int) Hashtbl.t;
  cache : (int * int * int * int, int) Hashtbl.t;
  (* op codes: 0 = and, 1 = xor, 2 = ite (c,a,b) *)
}

let dummy = { v = max_int; lo = -1; hi = -1 }

let man () =
  let m =
    { nodes = Array.make 1024 dummy; n = 2; unique = Hashtbl.create 4096; cache = Hashtbl.create 4096 }
  in
  m.nodes.(0) <- { v = max_int; lo = 0; hi = 0 };
  m.nodes.(1) <- { v = max_int; lo = 1; hi = 1 };
  m

let zero _ = 0
let one _ = 1

let node m i = m.nodes.(i)

let mk m v lo hi =
  if lo = hi then lo
  else
    match Hashtbl.find_opt m.unique (v, lo, hi) with
    | Some id -> id
    | None ->
        if m.n = Array.length m.nodes then begin
          let bigger = Array.make (2 * m.n) dummy in
          Array.blit m.nodes 0 bigger 0 m.n;
          m.nodes <- bigger
        end;
        let id = m.n in
        m.nodes.(id) <- { v; lo; hi };
        m.n <- m.n + 1;
        Hashtbl.add m.unique (v, lo, hi) id;
        id

let var m i = mk m i 0 1

let topvar m a = (node m a).v

let rec band m a b =
  if a = 0 || b = 0 then 0
  else if a = 1 then b
  else if b = 1 then a
  else if a = b then a
  else
    let a, b = if a < b then a, b else b, a in
    let key = (0, a, b, 0) in
    match Hashtbl.find_opt m.cache key with
    | Some r -> r
    | None ->
        let va = topvar m a and vb = topvar m b in
        let v = min va vb in
        let a0 = if va = v then (node m a).lo else a
        and a1 = if va = v then (node m a).hi else a
        and b0 = if vb = v then (node m b).lo else b
        and b1 = if vb = v then (node m b).hi else b in
        let r = mk m v (band m a0 b0) (band m a1 b1) in
        Hashtbl.add m.cache key r;
        r

let rec bxor m a b =
  if a = b then 0
  else if a = 0 then b
  else if b = 0 then a
  else
    let a, b = if a < b then a, b else b, a in
    let key = (1, a, b, 0) in
    match Hashtbl.find_opt m.cache key with
    | Some r -> r
    | None ->
        let va = topvar m a and vb = topvar m b in
        let v = min va vb in
        let a0 = if va = v then (node m a).lo else a
        and a1 = if va = v then (node m a).hi else a
        and b0 = if vb = v then (node m b).lo else b
        and b1 = if vb = v then (node m b).hi else b in
        let r = mk m v (bxor m a0 b0) (bxor m a1 b1) in
        Hashtbl.add m.cache key r;
        r

let bnot m a = bxor m a 1

let bor m a b = bnot m (band m (bnot m a) (bnot m b))

let rec bite m c a b =
  if c = 1 then a
  else if c = 0 then b
  else if a = b then a
  else if a = 1 && b = 0 then c
  else
    let key = (2, c, a, b) in
    match Hashtbl.find_opt m.cache key with
    | Some r -> r
    | None ->
        let vc = topvar m c and va = topvar m a and vb = topvar m b in
        let v = min vc (min va vb) in
        let split x vx = if vx = v then (node m x).lo, (node m x).hi else x, x in
        let c0, c1 = split c vc and a0, a1 = split a va and b0, b1 = split b vb in
        let r = mk m v (bite m c0 a0 b0) (bite m c1 a1 b1) in
        Hashtbl.add m.cache key r;
        r

let equal (a : t) (b : t) = a = b
let is_zero a = a = 0
let is_one a = a = 1

let size m root =
  let seen = Hashtbl.create 64 in
  let rec go i =
    if i >= 2 && not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      go (node m i).lo;
      go (node m i).hi
    end
  in
  go root;
  Hashtbl.length seen

let sat_one m root =
  if root = 0 then None
  else begin
    let rec go i acc =
      if i = 1 then acc
      else
        let nd = node m i in
        if nd.hi <> 0 then go nd.hi ((nd.v, true) :: acc)
        else go nd.lo ((nd.v, false) :: acc)
    in
    Some (List.rev (go root []))
  end

let of_truthtable m tt =
  let n = Truthtable.arity tt in
  let acc = ref 0 in
  List.iter
    (fun minterm ->
      let cube = ref 1 in
      for k = 0 to n - 1 do
        let lit = if (minterm lsr k) land 1 = 1 then var m k else bnot m (var m k) in
        cube := band m !cube lit
      done;
      acc := bor m !acc !cube)
    (Truthtable.minterms tt);
  if n = 0 then (if Truthtable.equal tt (Truthtable.const1 0) then 1 else 0) else !acc

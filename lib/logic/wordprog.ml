module A = Bigarray.Array1

type t = { arity : int; code : int array; out : int }

type regs = (int64, Bigarray.int64_elt, Bigarray.c_layout) A.t

let max_regs = 256

let create_regs () =
  let r = A.create Bigarray.int64 Bigarray.c_layout max_regs in
  A.fill r 0L;
  r

(* Opcodes (bits 0-2 of an instruction). *)
let op_and = 0   (* d = a & b *)
let op_or = 1    (* d = a | b *)
let op_xor = 2   (* d = a ^ b *)
let op_andn = 3  (* d = a & ~b *)
let op_orn = 4   (* d = a | ~b *)
let op_not = 5   (* d = ~a *)
let op_zero = 6  (* d = 0 *)
let op_ones = 7  (* d = -1 *)

let mask n = if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

(* Truth-table bits of the minterms whose input [k] is 1. *)
let var_bits =
  [|
    0xAAAAAAAAAAAAAAAAL;
    0xCCCCCCCCCCCCCCCCL;
    0xF0F0F0F0F0F0F0F0L;
    0xFF00FF00FF00FF00L;
    0xFFFF0000FFFF0000L;
    0xFFFFFFFF00000000L;
  |]

(* The cofactor of an [n]-input table with input [k] fixed to [v], as a
   table over the same inputs ([k] becomes vacuous). *)
let cofactor n f k v =
  let m = var_bits.(k) and s = 1 lsl k in
  let r =
    if v then
      let h = Int64.logand f m in
      Int64.logor h (Int64.shift_right_logical h s)
    else
      let l = Int64.logand f (Int64.lognot m) in
      Int64.logor l (Int64.shift_left l s)
  in
  Int64.logand r (mask n)

(* Shannon expansion along [order]: each distinct subfunction (keyed by its
   table) gets one register, reused wherever it recurs, and a node whose
   cofactor is constant or complementary collapses to a single operation. *)
let compile_order n bits order =
  let full = mask n in
  let code = ref [] and next = ref n in
  let memo = Hashtbl.create 16 in
  for k = 0 to n - 1 do
    Hashtbl.replace memo (Int64.logand var_bits.(k) full) k
  done;
  let emit op a b =
    let d = !next in
    incr next;
    code := op lor (d lsl 3) lor (a lsl 11) lor (b lsl 19) :: !code;
    d
  in
  let rec build f =
    match Hashtbl.find_opt memo f with
    | Some r -> r
    | None ->
        let r =
          match Hashtbl.find_opt memo (Int64.logand (Int64.lognot f) full) with
          | Some r -> emit op_not r 0
          | None ->
              if f = 0L then emit op_zero 0 0
              else if f = full then emit op_ones 0 0
              else begin
                let x =
                  List.find (fun k -> cofactor n f k false <> cofactor n f k true) order
                in
                let f0 = cofactor n f x false and f1 = cofactor n f x true in
                if f0 = 0L then emit op_and x (build f1)
                else if f1 = 0L then emit op_andn (build f0) x
                else if f0 = full then emit op_orn (build f1) x
                else if f1 = full then emit op_or x (build f0)
                else if f1 = Int64.logand (Int64.lognot f0) full then emit op_xor x (build f0)
                else begin
                  let r1 = build f1 in
                  let r0 = build f0 in
                  let a = emit op_and x r1 in
                  let b = emit op_andn r0 x in
                  emit op_or a b
                end
              end
        in
        Hashtbl.replace memo f r;
        r
  in
  let out = build bits in
  if !next > max_regs then failwith "Wordprog.compile: register file overflow";
  { arity = n; code = Array.of_list (List.rev !code); out }

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l

let compile (f : Truthtable.t) =
  let n = Truthtable.arity f in
  let identity = List.init n Fun.id in
  let orders = if n <= 4 then permutations identity else [ identity; List.rev identity ] in
  List.fold_left
    (fun best order ->
      let p = compile_order n (Truthtable.bits f) order in
      match best with
      | Some b when Array.length b.code <= Array.length p.code -> best
      | Some _ | None -> Some p)
    None orders
  |> Option.get

let of_minterms ~arity minterms =
  let bits =
    List.fold_left
      (fun acc m ->
        if m < 0 || m >= 1 lsl arity then invalid_arg "Wordprog.of_minterms";
        Int64.logor acc (Int64.shift_left 1L m))
      0L minterms
  in
  compile (Truthtable.of_bits ~arity bits)

let exec p (r : regs) =
  if A.dim r < max_regs then invalid_arg "Wordprog.exec: register file too small";
  let code = p.code in
  for i = 0 to Array.length code - 1 do
    let c = Array.unsafe_get code i in
    let d = (c lsr 3) land 0xff and a = (c lsr 11) land 0xff and b = (c lsr 19) land 0xff in
    match c land 7 with
    | 0 -> A.unsafe_set r d (Int64.logand (A.unsafe_get r a) (A.unsafe_get r b))
    | 1 -> A.unsafe_set r d (Int64.logor (A.unsafe_get r a) (A.unsafe_get r b))
    | 2 -> A.unsafe_set r d (Int64.logxor (A.unsafe_get r a) (A.unsafe_get r b))
    | 3 -> A.unsafe_set r d (Int64.logand (A.unsafe_get r a) (Int64.lognot (A.unsafe_get r b)))
    | 4 -> A.unsafe_set r d (Int64.logor (A.unsafe_get r a) (Int64.lognot (A.unsafe_get r b)))
    | 5 -> A.unsafe_set r d (Int64.lognot (A.unsafe_get r a))
    | 6 -> A.unsafe_set r d 0L
    | _ -> A.unsafe_set r d (-1L)
  done

let eval p ws =
  let r = create_regs () in
  for k = 0 to p.arity - 1 do
    A.set r k ws.(k)
  done;
  exec p r;
  A.get r p.out

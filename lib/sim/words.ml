(* Unboxed 64-pattern word storage, one word per net.  Private to this
   library: outside it the store is the abstract [Logic_sim.values]; the
   two simulators here read and write it in place. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0L;
  a

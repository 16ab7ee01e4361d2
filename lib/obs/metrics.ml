(* Registry: one mutex around registration and snapshot (cold paths), plain
   atomics on every update (hot paths).  Histograms use fixed power-of-two
   buckets so registration needs no per-metric configuration and exposition
   buckets line up across runs. *)

let n_pow2_buckets = 40
(* le = 2^0 .. 2^39 (~550 s in ns), then +Inf. *)

type cells =
  | Ccounter of int Atomic.t
  | Cgauge of int Atomic.t
  | Chist of { counts : int Atomic.t array; sum : int Atomic.t }

type entry = {
  e_name : string;
  e_help : string;
  e_labels : (string * string) list;
  e_cells : cells;
}

type counter = int Atomic.t
type gauge = int Atomic.t
type histogram = { h_counts : int Atomic.t array; h_sum : int Atomic.t }

let registry : (string * (string * string) list, entry) Hashtbl.t =
  Hashtbl.create 64

let registry_mutex = Mutex.create ()

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

(* Label hygiene, enforced at registration: Prometheus label names must
   match [a-zA-Z_][a-zA-Z0-9_]*, and a label set with a duplicated key
   renders as an invalid exposition (two [k="…"] pairs in one series).
   Both are programming errors — reject them with a descriptive message
   instead of exporting a broken page.  [labels] arrives canonically
   sorted, so duplicates are adjacent. *)
let valid_label_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       n

let check_labels name labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg
          (Printf.sprintf "Dfm_obs.Metrics: %s: invalid label name %S" name k))
    labels;
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as tl) -> if a = b then Some a else dup tl
    | _ -> None
  in
  match dup labels with
  | Some k ->
      invalid_arg
        (Printf.sprintf "Dfm_obs.Metrics: %s: duplicate label key %S in one label set"
           name k)
  | None -> ()

let register name help labels make =
  let labels = canon_labels labels in
  check_labels name labels;
  let key = (name, labels) in
  Mutex.lock registry_mutex;
  let entry =
    match Hashtbl.find_opt registry key with
    | Some e -> e
    | None ->
        let e = { e_name = name; e_help = help; e_labels = labels; e_cells = make () } in
        Hashtbl.add registry key e;
        e
  in
  Mutex.unlock registry_mutex;
  entry

let counter ?(help = "") ?(labels = []) name =
  let e = register name help labels (fun () -> Ccounter (Atomic.make 0)) in
  match e.e_cells with
  | Ccounter a -> a
  | _ -> invalid_arg ("Dfm_obs.Metrics.counter: " ^ name ^ " registered with another kind")

let gauge ?(help = "") ?(labels = []) name =
  let e = register name help labels (fun () -> Cgauge (Atomic.make 0)) in
  match e.e_cells with
  | Cgauge a -> a
  | _ -> invalid_arg ("Dfm_obs.Metrics.gauge: " ^ name ^ " registered with another kind")

let histogram ?(help = "") ?(labels = []) name =
  let e =
    register name help labels (fun () ->
        Chist
          {
            counts = Array.init (n_pow2_buckets + 1) (fun _ -> Atomic.make 0);
            sum = Atomic.make 0;
          })
  in
  match e.e_cells with
  | Chist { counts; sum } -> { h_counts = counts; h_sum = sum }
  | _ -> invalid_arg ("Dfm_obs.Metrics.histogram: " ^ name ^ " registered with another kind")

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value c = Atomic.get c
let set g v = Atomic.set g v
let add g v = ignore (Atomic.fetch_and_add g v)
let gauge_value g = Atomic.get g

(* Index of the first power-of-two bucket holding [v]: smallest i with
   v <= 2^i; values beyond 2^39 land in the +Inf bucket. *)
let bucket_index v =
  if v <= 1 then 0
  else begin
    let idx = ref 0 in
    let bound = ref 1 in
    while !bound < v && !idx < n_pow2_buckets do
      idx := !idx + 1;
      bound := !bound * 2
    done;
    !idx
  end

let observe h v =
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add h.h_counts.(bucket_index v) 1);
  ignore (Atomic.fetch_and_add h.h_sum v)

let histogram_sum h = Atomic.get h.h_sum

let timing = Atomic.make false
let set_timing_enabled b = Atomic.set timing b
let timing_enabled () = Atomic.get timing

(* ---- ambient attribution ------------------------------------------- *)

(* One process-global context is enough: the serve daemon executes one job
   at a time (single executor lane), and the worker domains that job spawns
   all serve the same tenant.  The context is output-only — it selects
   which labeled series a bump also lands on, never what the engine
   computes — so attribution cannot change a campaign result. *)
let attribution_ctx : (string * string) list Atomic.t = Atomic.make []

(* (name, help) of every attributed counter, guarded by [registry_mutex]:
   installing a context eagerly registers each one's labeled series, so a
   tenant's families are present (at zero) even for work it never did —
   e.g. a fully-cached job has a misses series, not a hole. *)
let attributed_inventory : (string * string) list ref = ref []

let set_attribution labels =
  let labels = canon_labels labels in
  check_labels "set_attribution" labels;
  Atomic.set attribution_ctx labels;
  if labels <> [] then begin
    Mutex.lock registry_mutex;
    let inv = !attributed_inventory in
    Mutex.unlock registry_mutex;
    List.iter (fun (name, help) -> ignore (counter ~help ~labels name : counter)) inv
  end

type attributed = {
  a_name : string;
  a_help : string;
  a_base : counter;
  (* The context list is allocated once per job, so caching the last
     (context, labeled-counter) pair by physical equality makes the
     attributed hot path one atomic read beyond the base bump. *)
  a_last : ((string * string) list * counter) Atomic.t;
}

let attributed_counter ?(help = "") name =
  let base = counter ~help name in
  Mutex.lock registry_mutex;
  if not (List.mem_assoc name !attributed_inventory) then
    attributed_inventory := (name, help) :: !attributed_inventory;
  Mutex.unlock registry_mutex;
  { a_name = name; a_help = help; a_base = base; a_last = Atomic.make ([], base) }

let attr_base a = a.a_base

let incr_attr ?(by = 1) a =
  incr ~by a.a_base;
  match Atomic.get attribution_ctx with
  | [] -> ()
  | ctx ->
      let last_ctx, last_c = Atomic.get a.a_last in
      let c =
        if last_ctx == ctx then last_c
        else begin
          let c = counter ~help:a.a_help ~labels:ctx a.a_name in
          Atomic.set a.a_last (ctx, c);
          c
        end
      in
      incr ~by c

type value =
  | Counter of int
  | Gauge of int
  | Histogram of {
      buckets : (float * int) array;
      sum : int;
      count : int;
    }

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

let le_bounds =
  lazy
    (Array.init (n_pow2_buckets + 1) (fun i ->
         if i = n_pow2_buckets then infinity else Float.of_int (1 lsl i)))

let snapshot () =
  Mutex.lock registry_mutex;
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) registry [] in
  Mutex.unlock registry_mutex;
  let read e =
    let value =
      match e.e_cells with
      | Ccounter a -> Counter (Atomic.get a)
      | Cgauge a -> Gauge (Atomic.get a)
      | Chist { counts; sum } ->
          let les = Lazy.force le_bounds in
          let cum = ref 0 in
          let buckets =
            Array.mapi
              (fun i c ->
                cum := !cum + Atomic.get c;
                (les.(i), !cum))
              counts
          in
          Histogram { buckets; sum = Atomic.get sum; count = !cum }
    in
    { name = e.e_name; help = e.e_help; labels = e.e_labels; value }
  in
  List.map read entries
  |> List.sort (fun a b ->
         match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)

let find_value ?(labels = []) name =
  let labels = canon_labels labels in
  List.find_opt (fun m -> m.name = name && m.labels = labels) (snapshot ())
  |> Option.map (fun m -> m.value)

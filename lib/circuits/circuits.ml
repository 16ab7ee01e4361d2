module M = Motifs

let default_scale () =
  match Sys.getenv_opt "REPRO_SCALE" with
  | Some s -> ( try float_of_string s with Failure _ -> 1.0)
  | None -> 1.0

(* Scaled count, never below a floor that keeps the motif meaningful. *)
let sc scale n = max 2 (int_of_float (float_of_int n *. scale))

let take n xs = List.filteri (fun i _ -> i < n) xs

let rotate k xs =
  let n = List.length xs in
  List.init n (fun i -> List.nth xs ((i + k) mod n))

(* ------------------------------------------------------------------ *)
(* tv80 — 8-bit microprocessor: ALU, accumulator/PC state, one-hot
   instruction decode driving a control cloud.                          *)
(* ------------------------------------------------------------------ *)

let tv80 scale =
  let ctx = M.make ~name:"tv80" ~seed:0x7480 in
  let w = 8 in
  let data = M.pis ctx "di" w in
  let op = M.pis ctx "op" 4 in
  let irq = M.pis ctx "irq" 3 in
  let acc = M.state_feedback ctx w (fun qs ->
      let sum, _ = M.ripple_adder ctx qs data ~cin:(List.hd op) in
      let xors = List.map2 (M.xor2 ctx) qs data in
      M.mux_word ctx ~sel:(List.nth op 1) sum xors)
  in
  let pc = M.state_feedback ctx w (fun qs -> M.incrementer ctx qs) in
  let hot = M.decoder ctx op in
  let grants = M.priority_encoder ctx irq in
  let cloud1 = M.onehot_cloud ctx ~hot ~data:(acc @ data) (sc scale 70) in
  let cloud2 = M.onehot_cloud ctx ~hot:grants ~data:(pc @ data) (sc scale 30) in
  let flags =
    [ M.equality ctx acc data; M.or_tree ctx (take 4 cloud1); M.xor_tree ctx (take 4 pc) ]
  in
  let filler = M.random_cloud ctx (data @ acc @ pc @ take 8 cloud1) (sc scale 40) in
  M.pos ctx "alu" acc;
  M.pos ctx "pc" (take 4 pc);
  M.pos ctx "fl" flags;
  M.pos ctx "misc" (take 6 (cloud2 @ filler));
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* systemcaes — AES round: S-boxes, key XOR, state registers, mode
   decode.                                                              *)
(* ------------------------------------------------------------------ *)

let systemcaes scale =
  let ctx = M.make ~name:"systemcaes" ~seed:0xAE5 in
  let key = M.pis ctx "k" 16 in
  let din = M.pis ctx "d" 16 in
  let mode = M.pis ctx "m" 3 in
  let state = M.state_feedback ctx 16 (fun qs ->
      let keyed = List.map2 (M.xor2 ctx) qs key in
      let sub = List.concat_map (fun grp -> M.sbox ctx grp 4)
          [ take 4 keyed; take 4 (rotate 4 keyed); take 4 (rotate 8 keyed); take 4 (rotate 12 keyed) ]
      in
      M.mux_word ctx ~sel:(List.hd mode) sub (List.map2 (M.xor2 ctx) sub din))
  in
  let hot = M.decoder ctx mode in
  let cloud = M.onehot_cloud ctx ~hot ~data:(state @ din) (sc scale 80) in
  let filler = M.random_cloud ctx (state @ key) (sc scale 50) in
  M.pos ctx "so" state;
  M.pos ctx "tag" (take 6 cloud);
  M.pos ctx "dbg" (take 4 filler);
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* aes_core — wider AES core: two S-box banks, mix-column XOR trees,
   round-constant decode.                                               *)
(* ------------------------------------------------------------------ *)

let aes_core scale =
  let ctx = M.make ~name:"aes_core" ~seed:0xAE50 in
  let key = M.pis ctx "k" 24 in
  let din = M.pis ctx "d" 24 in
  let round = M.pis ctx "r" 4 in
  let keyed = List.map2 (M.xor2 ctx) din key in
  let bank1 = List.concat_map (fun g -> M.sbox ctx g 4)
      [ take 6 keyed; take 6 (rotate 6 keyed); take 6 (rotate 12 keyed); take 6 (rotate 18 keyed) ]
  in
  let mix =
    List.map2 (M.xor2 ctx) bank1 (rotate 5 bank1)
    |> List.map2 (M.xor2 ctx) (rotate 11 bank1)
  in
  let state = M.state_feedback ctx 16 (fun qs -> M.mux_word ctx ~sel:(List.hd round) (take 16 mix) qs) in
  (* two independent redundancy pockets: the round decoder and a priority
     chain over key bytes *)
  let hot = M.decoder ctx round in
  let grants = M.priority_encoder ctx (take 6 keyed) in
  let cloud = M.onehot_cloud ctx ~hot ~data:(state @ keyed) (sc scale 60) in
  let cloud2 = M.onehot_cloud ctx ~hot:grants ~data:(bank1 @ din) (sc scale 50) in
  let filler = M.random_cloud ctx (mix @ state) (sc scale 60) in
  M.pos ctx "ct" state;
  M.pos ctx "mx" (take 8 mix);
  M.pos ctx "kx" (take 6 (cloud @ filler));
  M.pos ctx "gr" (take 4 cloud2);
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* wb_conmax — Wishbone crossbar: per-master arbitration (priority
   encoders), wide mux matrix; arbitration grants drive big clouds.     *)
(* ------------------------------------------------------------------ *)

let wb_conmax scale =
  let ctx = M.make ~name:"wb_conmax" ~seed:0xCB0 in
  let reqs = M.pis ctx "req" 6 in
  let addr = M.pis ctx "a" 8 in
  let dat0 = M.pis ctx "w" 12 in
  let dat1 = M.pis ctx "v" 12 in
  let grants = M.priority_encoder ctx reqs in
  let sel_hot = M.decoder ctx (take 3 addr) in
  let routed =
    List.fold_left
      (fun word g -> M.mux_word ctx ~sel:g word (rotate 3 word))
      (List.map2 (M.xor2 ctx) dat0 dat1)
      grants
  in
  let held = M.register ctx ~enable:(List.hd grants) routed in
  let cloud1 = M.onehot_cloud ctx ~hot:grants ~data:(dat0 @ held) (sc scale 90) in
  let cloud2 = M.onehot_cloud ctx ~hot:sel_hot ~data:(dat1 @ addr) (sc scale 90) in
  let filler = M.random_cloud ctx (routed @ held) (sc scale 60) in
  M.pos ctx "do" held;
  M.pos ctx "gnt" grants;
  M.pos ctx "st" (take 8 cloud1);
  M.pos ctx "sx" (take 8 (cloud2 @ filler));
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* des_perf — pipelined DES: 6->4 S-boxes, expansion/permutation XORs,
   several pipeline stages.  The largest block, as in the paper.        *)
(* ------------------------------------------------------------------ *)

let des_perf scale =
  let ctx = M.make ~name:"des_perf" ~seed:0xDE5 in
  let key = M.pis ctx "k" 24 in
  let din = M.pis ctx "d" 24 in
  let ctl = M.pis ctx "c" 4 in
  let stage input round_key =
    let expanded = List.map2 (M.xor2 ctx) input round_key in
    let sboxed =
      List.concat_map (fun g -> M.sbox ctx g 4)
        [ take 6 expanded; take 6 (rotate 6 expanded); take 6 (rotate 12 expanded);
          take 6 (rotate 18 expanded) ]
    in
    (* permutation: rotate + xor with the unsboxed half *)
    List.map2 (M.xor2 ctx) (rotate 7 sboxed) (take 16 input)
  in
  let s1 = stage din key in
  let r1 = M.register ctx s1 in
  let s2 = stage (r1 @ take 8 din) (rotate 3 key) in
  let r2 = M.register ctx s2 in
  let s3 = stage (r2 @ take 8 r1) (rotate 9 key) in
  let r3 = M.register ctx s3 in
  (* independent pockets per pipeline stage *)
  let hot = M.decoder ctx ctl in
  let grants = M.priority_encoder ctx (take 6 r2) in
  let cloud = M.onehot_cloud ctx ~hot ~data:(r1 @ r3) (sc scale 75) in
  let cloud2 = M.onehot_cloud ctx ~hot:grants ~data:(r2 @ key) (sc scale 60) in
  let filler = M.random_cloud ctx (r3 @ key) (sc scale 60) in
  M.pos ctx "ct" r3;
  M.pos ctx "p1" (take 6 r1);
  M.pos ctx "tag" (take 8 (cloud @ filler));
  M.pos ctx "tg2" (take 4 cloud2);
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* sparc_spu — stream processing unit: modular-arithmetic datapath with
   a small control FSM.                                                 *)
(* ------------------------------------------------------------------ *)

let sparc_spu scale =
  let ctx = M.make ~name:"sparc_spu" ~seed:0x59C0 in
  let a = M.pis ctx "a" 12 in
  let b = M.pis ctx "b" 12 in
  let opc = M.pis ctx "o" 3 in
  let cin = M.pis ctx "ci" 1 in
  let sum, cout = M.ripple_adder ctx a b ~cin:(List.hd cin) in
  let prod = List.map2 (M.and2 ctx) a (rotate 1 b) in
  let acc = M.state_feedback ctx 12 (fun qs ->
      M.mux_word ctx ~sel:(List.hd opc) (List.map2 (M.xor2 ctx) qs sum) prod)
  in
  let hot = M.decoder ctx opc in
  let cloud = M.onehot_cloud ctx ~hot ~data:(acc @ sum) (sc scale 60) in
  let filler = M.random_cloud ctx (sum @ prod) (sc scale 30) in
  M.pos ctx "r" acc;
  M.pos ctx "co" [ cout ];
  M.pos ctx "t" (take 6 (cloud @ filler));
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* sparc_ffu — FP frontend: format classification (priority encoder on
   exponent), operand muxing, register file slice.                      *)
(* ------------------------------------------------------------------ *)

let sparc_ffu scale =
  let ctx = M.make ~name:"sparc_ffu" ~seed:0xFF0 in
  let exp = M.pis ctx "e" 6 in
  let man = M.pis ctx "f" 12 in
  let sel = M.pis ctx "s" 3 in
  let classes = M.priority_encoder ctx exp in
  let aligned = M.barrel_shift ctx man ~sel:(take 3 exp) in
  let regs = M.register ctx ~enable:(List.hd sel) aligned in
  let hot = M.decoder ctx sel in
  let cloud1 = M.onehot_cloud ctx ~hot:classes ~data:(man @ regs) (sc scale 70) in
  let cloud2 = M.onehot_cloud ctx ~hot ~data:(aligned @ exp) (sc scale 40) in
  let filler = M.random_cloud ctx (aligned @ regs) (sc scale 30) in
  M.pos ctx "m" regs;
  M.pos ctx "cl" (take 6 classes);
  M.pos ctx "x" (take 8 (cloud1 @ cloud2 @ filler));
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* sparc_exu — execution unit: the ALU block, bypass muxes, condition
   codes; control decode feeds a large cloud (the paper's Table I shows
   exu with the densest clustering).                                    *)
(* ------------------------------------------------------------------ *)

let sparc_exu scale =
  let ctx = M.make ~name:"sparc_exu" ~seed:0xE86 in
  let rs1 = M.pis ctx "x" 16 in
  let rs2 = M.pis ctx "y" 16 in
  let opc = M.pis ctx "o" 4 in
  let sum, cout = M.ripple_adder ctx rs1 rs2 ~cin:(List.hd opc) in
  let logic = List.map2 (M.and2 ctx) rs1 rs2 in
  let xors = List.map2 (M.xor2 ctx) rs1 rs2 in
  let shifted = M.barrel_shift ctx rs1 ~sel:(take 4 rs2) in
  let stage1 = M.mux_word ctx ~sel:(List.nth opc 1) sum logic in
  let stage2 = M.mux_word ctx ~sel:(List.nth opc 2) xors shifted in
  let result = M.mux_word ctx ~sel:(List.nth opc 3) stage1 stage2 in
  let bypass = M.register ctx result in
  (* pockets: opcode decode and a shift-amount priority chain *)
  let hot = M.decoder ctx opc in
  let grants = M.priority_encoder ctx (take 6 rs2) in
  let cloud = M.onehot_cloud ctx ~hot ~data:(bypass @ sum) (sc scale 75) in
  let cloud2 = M.onehot_cloud ctx ~hot:grants ~data:(logic @ rs1) (sc scale 55) in
  let zero = M.inv ctx (M.or_tree ctx result) in
  let filler = M.random_cloud ctx (result @ xors) (sc scale 40) in
  M.pos ctx "r" result;
  M.pos ctx "cc" [ cout; zero ];
  M.pos ctx "by" (take 8 bypass);
  M.pos ctx "t" (take 8 (cloud @ filler));
  M.pos ctx "t2" (take 4 cloud2);
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* sparc_ifu — instruction fetch: PC chain, branch target adder, way
   select decode, predecode S-boxes.                                    *)
(* ------------------------------------------------------------------ *)

let sparc_ifu scale =
  let ctx = M.make ~name:"sparc_ifu" ~seed:0x1F0 in
  let inst = M.pis ctx "i" 16 in
  let boff = M.pis ctx "b" 8 in
  let way = M.pis ctx "w" 3 in
  let taken = M.pis ctx "t" 1 in
  let pc = M.state_feedback ctx 12 (fun qs ->
      let seq = M.incrementer ctx qs in
      let tgt, _ = M.ripple_adder ctx qs (boff @ take 4 qs) ~cin:(List.hd taken) in
      M.mux_word ctx ~sel:(List.hd taken) seq tgt)
  in
  let predec = List.concat_map (fun g -> M.sbox ctx g 4)
      [ take 5 inst; take 5 (rotate 5 inst); take 6 (rotate 10 inst) ]
  in
  let hot = M.decoder ctx way in
  let held = M.register ctx ~enable:(List.hd way) (take 10 predec) in
  let cloud = M.onehot_cloud ctx ~hot ~data:(pc @ predec) (sc scale 110) in
  let filler = M.random_cloud ctx (pc @ inst @ held) (sc scale 50) in
  M.pos ctx "pc" pc;
  M.pos ctx "pd" (take 8 predec);
  M.pos ctx "h" (take 6 held);
  M.pos ctx "x" (take 8 (cloud @ filler));
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* sparc_tlu — trap logic: trap priority encoding chains, trap-level
   state, vectored dispatch decode.                                     *)
(* ------------------------------------------------------------------ *)

let sparc_tlu scale =
  let ctx = M.make ~name:"sparc_tlu" ~seed:0x730 in
  let traps = M.pis ctx "tr" 8 in
  let tstate = M.pis ctx "ts" 8 in
  let tl = M.pis ctx "tl" 3 in
  let pri = M.priority_encoder ctx traps in
  let vec_hot = M.decoder ctx tl in
  let level = M.state_feedback ctx 8 (fun qs ->
      let bumped = M.incrementer ctx qs in
      M.mux_word ctx ~sel:(List.hd traps) qs bumped)
  in
  let masked = List.map2 (M.and2 ctx) tstate (rotate 1 tstate) in
  let cloud1 = M.onehot_cloud ctx ~hot:pri ~data:(tstate @ level) (sc scale 110) in
  let cloud2 = M.onehot_cloud ctx ~hot:vec_hot ~data:(masked @ traps) (sc scale 70) in
  let filler = M.random_cloud ctx (level @ masked) (sc scale 40) in
  M.pos ctx "tt" (take 8 pri);
  M.pos ctx "lvl" level;
  M.pos ctx "m" (take 6 masked);
  M.pos ctx "x" (take 10 (cloud1 @ cloud2 @ filler));
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* sparc_lsu — load/store: address adder, alignment shifter, byte-enable
   decode, store buffer registers.                                      *)
(* ------------------------------------------------------------------ *)

let sparc_lsu scale =
  let ctx = M.make ~name:"sparc_lsu" ~seed:0x150 in
  let base = M.pis ctx "b" 14 in
  let off = M.pis ctx "o" 14 in
  let size = M.pis ctx "sz" 2 in
  let wdat = M.pis ctx "wd" 8 in
  let vaddr, _ = M.ripple_adder ctx base off ~cin:(List.hd size) in
  let be_hot = M.decoder ctx (take 2 vaddr @ size) in
  let aligned = M.barrel_shift ctx (wdat @ take 4 base) ~sel:(take 3 vaddr) in
  let stb = M.register ctx ~enable:(List.hd size) aligned in
  let cloud = M.onehot_cloud ctx ~hot:be_hot ~data:(vaddr @ stb) (sc scale 140) in
  let filler = M.random_cloud ctx (vaddr @ aligned) (sc scale 50) in
  M.pos ctx "va" vaddr;
  M.pos ctx "st" stb;
  M.pos ctx "x" (take 10 (cloud @ filler));
  M.finish ctx

(* ------------------------------------------------------------------ *)
(* sparc_fpu — floating point: exponent compare/adder, mantissa adder,
   leading-zero priority encode, normalization shifter, rounding LUTs.  *)
(* ------------------------------------------------------------------ *)

let sparc_fpu scale =
  let ctx = M.make ~name:"sparc_fpu" ~seed:0xF90 in
  let ea = M.pis ctx "ea" 6 in
  let eb = M.pis ctx "eb" 6 in
  let ma = M.pis ctx "ma" 14 in
  let mb = M.pis ctx "mb" 14 in
  let rm = M.pis ctx "rm" 2 in
  let ediff, _ = M.ripple_adder ctx ea (List.map (fun e -> M.inv ctx e) eb) ~cin:(List.hd rm) in
  let aligned = M.barrel_shift ctx mb ~sel:(take 3 ediff) in
  let msum, mcout = M.ripple_adder ctx ma aligned ~cin:(List.hd rm) in
  let lz = M.priority_encoder ctx (take 8 msum) in
  let normed = M.barrel_shift ctx msum ~sel:(take 3 msum) in
  let round = M.sbox ctx (take 4 normed @ rm) 3 in
  let resreg = M.register ctx (take 12 normed) in
  (* pockets: leading-zero priority lines and the rounding-mode decode *)
  let rm_hot = M.decoder ctx rm in
  let cloud = M.onehot_cloud ctx ~hot:lz ~data:(normed @ ediff) (sc scale 70) in
  let cloud2 = M.onehot_cloud ctx ~hot:rm_hot ~data:(aligned @ ma) (sc scale 55) in
  let filler = M.random_cloud ctx (msum @ resreg) (sc scale 50) in
  M.pos ctx "m" resreg;
  M.pos ctx "e" (take 6 ediff);
  M.pos ctx "rc" (mcout :: round);
  M.pos ctx "x" (take 10 (cloud @ filler));
  M.pos ctx "x2" (take 4 cloud2);
  M.finish ctx

(* ------------------------------------------------------------------ *)

let registry =
  [
    ("tv80", tv80);
    ("systemcaes", systemcaes);
    ("aes_core", aes_core);
    ("wb_conmax", wb_conmax);
    ("des_perf", des_perf);
    ("sparc_spu", sparc_spu);
    ("sparc_ffu", sparc_ffu);
    ("sparc_exu", sparc_exu);
    ("sparc_ifu", sparc_ifu);
    ("sparc_tlu", sparc_tlu);
    ("sparc_lsu", sparc_lsu);
    ("sparc_fpu", sparc_fpu);
  ]

let names = List.map fst registry

let table1_names = [ "aes_core"; "des_perf"; "sparc_exu"; "sparc_fpu" ]

let build ?scale name =
  let scale = match scale with Some s -> s | None -> default_scale () in
  (List.assoc name registry) scale

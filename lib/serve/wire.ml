type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)
(* ------------------------------------------------------------------ *)

let rec print_into buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* %.17g roundtrips every finite float; NaN/inf have no JSON
         spelling, so they degrade to null rather than emit an
         unparseable token. *)
      if Float.is_nan f || not (Float.is_finite f) then Buffer.add_string buf "null"
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s ->
      Buffer.add_char buf '"';
      Dfm_obs.Export.json_escape_into buf s;
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          print_into buf x)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Dfm_obs.Export.json_escape_into buf k;
          Buffer.add_string buf "\":";
          print_into buf x)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print_into buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let max_depth = 64

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Bad (Printf.sprintf "%s at byte %d" msg c.pos))

let skip_ws c =
  let continue_ = ref true in
  while !continue_ do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | Some _ | None -> continue_ := false
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c (Printf.sprintf "expected %c, got %c" ch x)
  | None -> fail c (Printf.sprintf "expected %c, got end of input" ch)

let parse_literal c word v =
  String.iter (fun ch -> expect c ch) word;
  v

let hex_val c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "bad hex digit in \\u escape"

(* \uXXXX escapes: BMP code points are emitted as UTF-8; surrogate pairs
   are not reassembled (the printer never produces them — it escapes only
   control bytes). *)
let add_codepoint buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c "unterminated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let digit () =
                  match peek c with
                  | None -> fail c "truncated \\u escape"
                  | Some ch ->
                      advance c;
                      hex_val c ch
                in
                let cp = ref 0 in
                for _ = 1 to 4 do
                  cp := (!cp lsl 4) lor digit ()
                done;
                add_codepoint buf !cp
            | _ -> fail c "unknown escape");
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let continue_ = ref true in
  while !continue_ do
    match peek c with
    | Some ch when is_num_char ch -> advance c
    | Some _ | None -> continue_ := false
  done;
  let text = String.sub c.s start (c.pos - start) in
  if text = "" then fail c "expected a value";
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail c (Printf.sprintf "bad number %S" text))

let rec parse_value c ~depth =
  if depth > max_depth then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> fail c "expected a value, got end of input"
  | Some '"' -> String (parse_string c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [] in
        let continue_ = ref true in
        while !continue_ do
          items := parse_value c ~depth:(depth + 1) :: !items;
          skip_ws c;
          match peek c with
          | Some ',' -> advance c
          | Some ']' ->
              advance c;
              continue_ := false
          | Some _ | None -> fail c "expected , or ] in array"
        done;
        List (List.rev !items)
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let continue_ = ref true in
        while !continue_ do
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c ~depth:(depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' -> advance c
          | Some '}' ->
              advance c;
              continue_ := false
          | Some _ | None -> fail c "expected , or } in object"
        done;
        Obj (List.rev !fields)
      end
  | Some _ -> parse_number c

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c ~depth:0 with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error (Printf.sprintf "trailing bytes at %d" c.pos)
      else Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let member k v =
  match v with Obj fields -> List.assoc_opt k fields | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function List l -> Some l | _ -> None

let str_field k v = Option.bind (member k v) to_str

let int_field k v = Option.bind (member k v) to_int

let float_field k v = Option.bind (member k v) to_float

let bool_field k v = Option.bind (member k v) to_bool

let equal a b = a = b

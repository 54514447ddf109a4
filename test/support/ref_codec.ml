(* Reference codec: the original, obviously-correct [Worm_util.Codec]
   retained verbatim as a byte-identity oracle (the `ref_hash.ml`
   pattern). The production codec was rebuilt around a preallocated
   [Bytes] core with unsafe big-endian word writes and pooled encoders;
   encodings are canonical and signed, so tests compare every encoding
   produced by the new codec against this one.
   Do not "improve" this module — its value is that it never changes. *)

type encoder = Buffer.t

let encoder () = Buffer.create 64
let to_string = Buffer.contents

let u8 e v =
  if v < 0 || v > 0xff then invalid_arg "Codec.u8";
  Buffer.add_char e (Char.chr v)

let u16 e v =
  if v < 0 || v > 0xffff then invalid_arg "Codec.u16";
  Buffer.add_char e (Char.chr (v lsr 8));
  Buffer.add_char e (Char.chr (v land 0xff))

let u32 e v =
  if v < 0 || v > 0xffffffff then invalid_arg "Codec.u32";
  u16 e (v lsr 16);
  u16 e (v land 0xffff)

let u64 e v =
  for i = 7 downto 0 do
    let byte = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
    Buffer.add_char e (Char.chr byte)
  done

let int_as_u64 e v =
  if v < 0 then invalid_arg "Codec.int_as_u64";
  u64 e (Int64.of_int v)

let bool e b = u8 e (if b then 1 else 0)

let bytes e s =
  u32 e (String.length s);
  Buffer.add_string e s

let list item e xs =
  u32 e (List.length xs);
  List.iter (item e) xs

let option item e = function
  | None -> u8 e 0
  | Some v ->
      u8 e 1;
      item e v

type decoder = { input : string; mutable pos : int }

exception Truncated
exception Malformed of string

let decoder input = { input; pos = 0 }
let remaining d = String.length d.input - d.pos

let take d n =
  if remaining d < n then raise Truncated;
  let pos = d.pos in
  d.pos <- pos + n;
  pos

let read_u8 d =
  let pos = take d 1 in
  Char.code d.input.[pos]

let read_u16 d =
  let pos = take d 2 in
  (Char.code d.input.[pos] lsl 8) lor Char.code d.input.[pos + 1]

let read_u32 d =
  let hi = read_u16 d in
  let lo = read_u16 d in
  (hi lsl 16) lor lo

let read_u64 d =
  let pos = take d 8 in
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code d.input.[pos + i]))
  done;
  !v

let read_int_as_u64 d =
  let v = read_u64 d in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Malformed "int_as_u64 out of range");
  Int64.to_int v

let read_bool d =
  match read_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Malformed (Printf.sprintf "bad bool tag %d" n))

let read_bytes d =
  let n = read_u32 d in
  let pos = take d n in
  String.sub d.input pos n

let read_list item d =
  let n = read_u32 d in
  List.init n (fun _ -> item d)

let read_option item d =
  match read_u8 d with
  | 0 -> None
  | 1 -> Some (item d)
  | n -> raise (Malformed (Printf.sprintf "bad option tag %d" n))

let expect_end d =
  if remaining d <> 0 then raise (Malformed "trailing bytes")

let encode enc v =
  let e = encoder () in
  enc e v;
  to_string e

let decode dec s =
  let d = decoder s in
  match
    let v = dec d in
    expect_end d;
    v
  with
  | v -> Ok v
  | exception Truncated -> Error "truncated input"
  | exception Malformed msg -> Error ("malformed input: " ^ msg)

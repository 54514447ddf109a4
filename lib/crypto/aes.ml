(* AES-128 (FIPS 197), word-oriented T-table core.

   A state column is one big-endian 32-bit word carried in a native int
   (row 0 in the top byte), so a round is sixteen table lookups and
   XORs over four let-bound ints. The S-box and the four T-tables are
   computed at module init from the field arithmetic of FIPS 197 §4-5:
   nothing below is a hand-typed table.

   The unsafe accesses are sound by construction: every table index is
   a byte extracted from a 32-bit word ([lsr 24] or [land 0xff]), a
   [key] is always the 44-word array built by [key_of_string], and
   [xor_block] touches whole words only when a full block fits in both
   [data] and [out], which have the same length. *)

external unsafe_get_32 : string -> int -> int32 = "%caml_string_get32u"
external unsafe_set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let xtime b = ((b lsl 1) lxor (if b land 0x80 <> 0 then 0x1b else 0)) land 0xff

(* S-box: multiplicative inverse in GF(2^8), via exp/log tables over the
   generator 3, followed by the affine transform. *)
let sbox =
  let exp = Array.make 255 0 and log = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := !x lxor xtime !x
  done;
  let rotl8 b n = ((b lsl n) lor (b lsr (8 - n))) land 0xff in
  Array.init 256 (fun b ->
      let inv = if b = 0 then 0 else exp.((255 - log.(b)) mod 255) in
      inv lxor rotl8 inv 1 lxor rotl8 inv 2 lxor rotl8 inv 3 lxor rotl8 inv 4 lxor 0x63)

(* te0.(x) is the MixColumns column (2s, s, s, 3s) of s = sbox.(x);
   te1..te3 are its byte rotations, one per ShiftRows source row. *)
let te0 =
  Array.map
    (fun s ->
      let s2 = xtime s in
      (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s))
    sbox

let rotr8 w = (w lsr 8) lor ((w land 0xff) lsl 24)
let te1 = Array.map rotr8 te0
let te2 = Array.map rotr8 te1
let te3 = Array.map rotr8 te2

type key = int array
(* 44 round-key words: word 4r + c is column c of round key r *)

let sub_word w =
  (sbox.(w lsr 24) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let be32 v = if Sys.big_endian then v else swap32 v
let word_be s off = Int32.to_int (be32 (unsafe_get_32 s off)) land 0xffffffff
let set_word out off w = unsafe_set_32 out off (be32 (Int32.of_int w))

let key_of_string s =
  if String.length s <> 16 then invalid_arg "Aes.key_of_string: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- word_be s (4 * i)
  done;
  let rcon = ref 0x01 in
  for i = 4 to 43 do
    let t = w.(i - 1) in
    let t =
      if i land 3 <> 0 then t
      else begin
        (* RotWord + SubWord + Rcon *)
        let t = sub_word (((t lsl 8) lor (t lsr 24)) land 0xffffffff) lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        t
      end
    in
    w.(i) <- w.(i - 4) lxor t
  done;
  w

(* One column of a full round: SubBytes, ShiftRows and MixColumns of the
   diagonal starting at [a], plus the round-key word [k]. *)
let[@inline] column a b c d k =
  Array.unsafe_get te0 (a lsr 24)
  lxor Array.unsafe_get te1 ((b lsr 16) land 0xff)
  lxor Array.unsafe_get te2 ((c lsr 8) land 0xff)
  lxor Array.unsafe_get te3 (d land 0xff)
  lxor k

(* The last round has no MixColumns: bare S-box bytes. *)
let[@inline] last_column a b c d k =
  ((Array.unsafe_get sbox (a lsr 24) lsl 24)
  lor (Array.unsafe_get sbox ((b lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get sbox ((c lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get sbox (d land 0xff))
  lxor k

(* XOR the keystream block E(s0 s1 s2 s3) over [data] into [out] at
   [off]: a full block as four 32-bit words, a partial last block byte
   by byte. [encrypt_block] passes an all-zero [data]. *)
let xor_block data out off k0 k1 k2 k3 =
  if off + 16 <= Bytes.length out then begin
    set_word out off (word_be data off lxor k0);
    set_word out (off + 4) (word_be data (off + 4) lxor k1);
    set_word out (off + 8) (word_be data (off + 8) lxor k2);
    set_word out (off + 12) (word_be data (off + 12) lxor k3)
  end
  else
    for i = off to Bytes.length out - 1 do
      let j = i - off in
      let k = match j lsr 2 with 0 -> k0 | 1 -> k1 | 2 -> k2 | _ -> k3 in
      let ks = (k lsr (24 - (8 * (j land 3)))) land 0xff in
      Bytes.unsafe_set out i (Char.unsafe_chr (Char.code (String.unsafe_get data i) lxor ks))
    done

(* Rounds [r..10] over the four state columns; round 10 has no
   MixColumns and ends in [xor_block]. *)
let rec rounds rk r s0 s1 s2 s3 data out off =
  let i = 4 * r in
  if r < 10 then
    rounds rk (r + 1)
      (column s0 s1 s2 s3 (Array.unsafe_get rk i))
      (column s1 s2 s3 s0 (Array.unsafe_get rk (i + 1)))
      (column s2 s3 s0 s1 (Array.unsafe_get rk (i + 2)))
      (column s3 s0 s1 s2 (Array.unsafe_get rk (i + 3)))
      data out off
  else
    xor_block data out off
      (last_column s0 s1 s2 s3 (Array.unsafe_get rk i))
      (last_column s1 s2 s3 s0 (Array.unsafe_get rk (i + 1)))
      (last_column s2 s3 s0 s1 (Array.unsafe_get rk (i + 2)))
      (last_column s3 s0 s1 s2 (Array.unsafe_get rk (i + 3)))

let keystream_xor rk s0 s1 s2 s3 data out off =
  rounds rk 1
    (s0 lxor Array.unsafe_get rk 0)
    (s1 lxor Array.unsafe_get rk 1)
    (s2 lxor Array.unsafe_get rk 2)
    (s3 lxor Array.unsafe_get rk 3)
    data out off

let zero_block = String.make 16 '\000'

let encrypt_block key block =
  if String.length block <> 16 then invalid_arg "Aes.encrypt_block: need 16 bytes";
  let out = Bytes.create 16 in
  keystream_xor key (word_be block 0) (word_be block 4) (word_be block 8) (word_be block 12) zero_block out 0;
  Bytes.unsafe_to_string out

let ctr key ~nonce data =
  if String.length nonce <> 8 then invalid_arg "Aes.ctr: nonce must be 8 bytes";
  let n = String.length data in
  let out = Bytes.create n in
  let n0 = word_be nonce 0 and n1 = word_be nonce 4 in
  (* block [b] is XORed with E(nonce || be64 b) *)
  for b = 0 to ((n + 15) / 16) - 1 do
    keystream_xor key n0 n1 ((b lsr 32) land 0xffffffff) (b land 0xffffffff) data out (16 * b)
  done;
  Bytes.unsafe_to_string out

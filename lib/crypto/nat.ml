(* Little-endian arrays of limbs in base 2^31. The invariant throughout is
   that values are canonical: the top limb is nonzero (zero is [||]).
   Base 2^31 keeps every intermediate product a*b + c + d within OCaml's
   63-bit native int: (2^31-1)^2 + 2*(2^31-1) = 2^62 - 1 = max_int. *)

type t = int array

let base_bits = 31
let base_mask = 0x7FFFFFFF

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Nat.of_int: negative";
  if v = 0 then zero
  else begin
    let rec limbs acc v = if v = 0 then List.rev acc else limbs ((v land base_mask) :: acc) (v lsr base_bits) in
    Array.of_list (limbs [] v)
  end

let one = of_int 1
let two = of_int 2

let to_int_opt (a : t) =
  (* max_int is 62 bits: at most three limbs with a one-bit top limb. *)
  let n = Array.length a in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = n - 1 downto 0 do
      if !v > max_int lsr base_bits then ok := false
      else begin
        let shifted = !v lsl base_bits in
        if shifted > max_int - a.(i) || shifted < 0 then ok := false else v := shifted lor a.(i)
      end
    done;
    if !ok then Some !v else None
  end

let to_int a =
  match to_int_opt a with
  | Some v -> v
  | None -> invalid_arg "Nat.to_int: overflow"

let is_one a = Array.length a = 1 && a.(0) = 1
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(n) <- !carry;
  normalize r

let succ a = add a one

let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin
      r.(i) <- d + base_mask + 1;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let pred a = sub a one

let mul (a : t) (b : t) : t =
  if is_zero a || is_zero b then zero
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let x = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- x land base_mask;
          carry := x lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let x = r.(!k) + !carry in
          r.(!k) <- x land base_mask;
          carry := x lsr base_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let bit_length (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + width top 0
  end

let test_bit (a : t) i =
  if i < 0 then invalid_arg "Nat.test_bit: negative index";
  let limb = i / base_bits in
  limb < Array.length a && (a.(limb) lsr (i mod base_bits)) land 1 = 1

let shift_left (a : t) k =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let x = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- x land base_mask;
        carry := x lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    normalize r
  end

let shift_right (a : t) k =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      if bits = 0 then Array.blit a limbs r 0 n
      else begin
        for i = 0 to n - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (base_bits - bits)) land base_mask else 0 in
          r.(i) <- lo lor hi
        done
      end;
      normalize r
    end
  end

(* Shift-and-subtract long division: O(bits(a) * limbs) — plenty for key
   sizes up to a few thousand bits, and only exercised outside the
   Montgomery fast path. *)
let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  let c = compare a b in
  if c < 0 then (zero, a)
  else if c = 0 then (one, zero)
  else begin
    let shift = bit_length a - bit_length b in
    let qlimbs = (shift / base_bits) + 1 in
    let q = Array.make qlimbs 0 in
    let r = ref a in
    let d = ref (shift_left b shift) in
    for i = shift downto 0 do
      if compare !r !d >= 0 then begin
        r := sub !r !d;
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end;
      d := shift_right !d 1
    done;
    (normalize q, !r)
  end

let div a b = fst (divmod a b)
let modulo a b = snd (divmod a b)

(* Horner over the limbs, most significant first: with r < d < 2^31 the
   step value r * 2^31 + limb stays below 2^62, inside a native int. *)
let rem_int (a : t) d =
  if d < 1 || d > base_mask then invalid_arg "Nat.rem_int: divisor outside [1, 2^31)";
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := ((!r lsl base_bits) lor Array.unsafe_get a i) mod d
  done;
  !r

let rec gcd a b = if is_zero b then a else gcd b (modulo a b)

(* Signed values for the extended Euclid coefficient: (negative?, magnitude). *)
let s_sub (an, a) (bn, b) =
  match (an, bn) with
  | false, true -> (false, add a b)
  | true, false -> (true, add a b)
  | false, false -> if compare a b >= 0 then (false, sub a b) else (true, sub b a)
  | true, true -> if compare b a >= 0 then (false, sub b a) else (true, sub a b)

let mod_inverse a m =
  if is_zero m then invalid_arg "Nat.mod_inverse: zero modulus";
  if is_one m then Some zero
  else begin
    let a = modulo a m in
    (* Invariant: r_i = (coefficient of original a) kept in s_i, mod m. *)
    let rec go r0 r1 s0 s1 =
      if is_zero r1 then
        if is_one r0 then begin
          let neg, mag = s0 in
          let mag = modulo mag m in
          Some (if neg && not (is_zero mag) then sub m mag else mag)
        end
        else None
      else begin
        let q, r2 = divmod r0 r1 in
        let neg1, mag1 = s1 in
        let s2 = s_sub s0 (neg1, mul mag1 q) in
        go r1 r2 s1 s2
      end
    in
    go m a (false, zero) (false, one)
  end

(* Montgomery arithmetic for odd moduli. Values inside the domain are
   kept as fixed-width [limbs]-length arrays (< m, not canonicalized) so
   the inner loops never allocate: a context carries two preallocated
   scratch buffers that every multiply/square/reduce runs through. A
   context is therefore NOT reentrant — one modular exponentiation at a
   time per context — which is fine for this single-threaded codebase
   and lets callers cache contexts per key for the signing hot path. *)
type mont = {
  m : t;  (* modulus, canonical: exactly [limbs] limbs, top nonzero *)
  n0' : int;  (* -m^-1 mod 2^31 *)
  r2 : int array;  (* R^2 mod m, fixed width *)
  one_m : int array;  (* R mod m: Montgomery form of 1, fixed width *)
  limbs : int;
  tmp : int array;  (* limbs + 2: CIOS accumulator *)
  sq : int array;  (* 2*limbs + 1: squaring / plain-reduction buffer *)
}

let mont_modulus ctx = ctx.m

(* Fresh scratch over the same precomputed constants. The immutable
   fields (m, n0', r2, one_m) are shared — only tmp/sq are per-clone —
   so cloning costs two small allocations instead of the division
   mont_init pays for R^2 mod m. This is what makes a shared context
   cache domain-safe: one master per modulus, one clone per domain. *)
let mont_clone ctx =
  { ctx with tmp = Array.make (ctx.limbs + 2) 0; sq = Array.make ((2 * ctx.limbs) + 1) 0 }

let mont_init (m : t) =
  if is_zero m || is_even m then invalid_arg "Nat.mont_init: modulus must be odd";
  let limbs = Array.length m in
  let m0 = m.(0) in
  (* Hensel lifting: five Newton steps take a 1-bit inverse to >= 32 bits. *)
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := (!inv * (2 - (m0 * !inv))) land base_mask
  done;
  let n0' = (base_mask + 1 - !inv) land base_mask in
  let r_mod_m = modulo (shift_left one (base_bits * limbs)) m in
  let r2 = modulo (mul r_mod_m r_mod_m) m in
  let pad a =
    let w = Array.make limbs 0 in
    Array.blit a 0 w 0 (Array.length a);
    w
  in
  {
    m;
    n0';
    r2 = pad r2;
    one_m = pad r_mod_m;
    limbs;
    tmp = Array.make (limbs + 2) 0;
    sq = Array.make ((2 * limbs) + 1) 0;
  }

(* dst <- src mod m where src is the [limbs+1]-wide value at [src.(off)
   .. src.(off+limbs)] known to be < 2m (top limb 0 or 1). *)
let mont_sub_once ctx (src : int array) off (dst : int array) =
  let n = ctx.limbs and m = ctx.m in
  let ge =
    src.(off + n) > 0
    ||
    let rec cmp i = if i < 0 then true else if src.(off + i) <> m.(i) then src.(off + i) > m.(i) else cmp (i - 1) in
    cmp (n - 1)
  in
  if ge then begin
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = Array.unsafe_get src (off + i) - Array.unsafe_get m i - !borrow in
      Array.unsafe_set dst i (d land base_mask);
      borrow := (d asr base_bits) land 1
    done
  end
  else Array.blit src off dst 0 n

(* Fused CIOS multiply: dst <- a*b/R mod m without materializing the
   double-width product. Each outer round interleaves one limb of the
   schoolbook product with one limb of the reduction, accumulating in
   ctx.tmp; [dst] may alias [a] or [b]. *)
let mont_mul ctx (dst : int array) (a : int array) (b : int array) =
  let n = ctx.limbs and m = ctx.m and t = ctx.tmp in
  Array.fill t 0 (n + 2) 0;
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    (* t += a_i * b *)
    let c = ref 0 in
    for j = 0 to n - 1 do
      let x = Array.unsafe_get t j + (ai * Array.unsafe_get b j) + !c in
      Array.unsafe_set t j (x land base_mask);
      c := x lsr base_bits
    done;
    let x = t.(n) + !c in
    t.(n) <- x land base_mask;
    t.(n + 1) <- x lsr base_bits;
    (* t <- (t + u*m) / 2^31 *)
    let u = (t.(0) * ctx.n0') land base_mask in
    let c = ref ((t.(0) + (u * Array.unsafe_get m 0)) lsr base_bits) in
    for j = 1 to n - 1 do
      let x = Array.unsafe_get t j + (u * Array.unsafe_get m j) + !c in
      Array.unsafe_set t (j - 1) (x land base_mask);
      c := x lsr base_bits
    done;
    let x = t.(n) + !c in
    t.(n - 1) <- x land base_mask;
    t.(n) <- t.(n + 1) + (x lsr base_bits);
    t.(n + 1) <- 0
  done;
  mont_sub_once ctx t 0 dst

(* Montgomery reduction of the double-width value sitting in ctx.sq:
   dst <- sq / R mod m (SOS rounds, in place). *)
let mont_reduce_scratch ctx (dst : int array) =
  let n = ctx.limbs and m = ctx.m and t = ctx.sq in
  for i = 0 to n - 1 do
    let u = (t.(i) * ctx.n0') land base_mask in
    if u <> 0 then begin
      let c = ref 0 in
      for j = 0 to n - 1 do
        let x = Array.unsafe_get t (i + j) + (u * Array.unsafe_get m j) + !c in
        Array.unsafe_set t (i + j) (x land base_mask);
        c := x lsr base_bits
      done;
      let k = ref (i + n) in
      while !c <> 0 do
        let x = t.(!k) + !c in
        t.(!k) <- x land base_mask;
        c := x lsr base_bits;
        incr k
      done
    end
  done;
  mont_sub_once ctx t n dst

(* Dedicated squaring: the cross products a_i*a_j (i<j) are computed
   once, doubled by a linear shift pass, and the diagonal a_i^2 terms
   added — about half the limb products of mont_mul — then reduced.
   (Doubling each product inline would overflow 63-bit ints: 2*(2^31-1)^2
   > max_int, hence the separate shift pass.) *)
let mont_sqr ctx (dst : int array) (a : int array) =
  let n = ctx.limbs and t = ctx.sq in
  let len = (2 * n) + 1 in
  Array.fill t 0 len 0;
  for i = 0 to n - 2 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then begin
      let c = ref 0 in
      for j = i + 1 to n - 1 do
        let x = Array.unsafe_get t (i + j) + (ai * Array.unsafe_get a j) + !c in
        Array.unsafe_set t (i + j) (x land base_mask);
        c := x lsr base_bits
      done;
      let k = ref (i + n) in
      while !c <> 0 do
        let x = t.(!k) + !c in
        t.(!k) <- x land base_mask;
        c := x lsr base_bits;
        incr k
      done
    end
  done;
  let c = ref 0 in
  for i = 0 to len - 1 do
    let x = (Array.unsafe_get t i lsl 1) lor !c in
    Array.unsafe_set t i (x land base_mask);
    c := x lsr base_bits
  done;
  let c = ref 0 in
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    let p = ai * ai in
    let x = Array.unsafe_get t (2 * i) + (p land base_mask) + !c in
    Array.unsafe_set t (2 * i) (x land base_mask);
    let x1 = Array.unsafe_get t ((2 * i) + 1) + (p lsr base_bits) + (x lsr base_bits) in
    Array.unsafe_set t ((2 * i) + 1) (x1 land base_mask);
    c := x1 lsr base_bits
  done;
  if !c <> 0 then begin
    let k = ref (2 * n) in
    while !c <> 0 do
      let x = t.(!k) + !c in
      t.(!k) <- x land base_mask;
      c := x lsr base_bits;
      incr k
    done
  end;
  mont_reduce_scratch ctx dst

(* Two CIOS multiplies: a*b/R, then times R^2 to cancel the R^-1. With
   a, b < m every intermediate stays below 2m, so the result is fully
   reduced and no long division is needed. *)
let mod_mul ctx (a : t) (b : t) =
  if compare a ctx.m >= 0 || compare b ctx.m >= 0 then invalid_arg "Nat.mod_mul: operand not below the modulus";
  let n = ctx.limbs in
  let acc = Array.make n 0 and bw = Array.make n 0 in
  Array.blit a 0 acc 0 (Array.length a);
  Array.blit b 0 bw 0 (Array.length b);
  mont_mul ctx acc acc bw;
  mont_mul ctx acc acc ctx.r2;
  normalize acc

(* Fixed 4-bit windows: 4 squarings plus at most one table multiply per
   window, a ~17% multiply saving over binary square-and-multiply at RSA
   sizes. The 16-entry table costs 14 extra multiplies up front, well
   repaid beyond ~128-bit exponents; short exponents take the binary
   path. *)
let mod_pow_ctx ctx ~base ~exp =
  let n = ctx.limbs in
  (* Bring [base] into Montgomery form without a long division. CIOS
     tolerates one operand up to R, so an n-limb base converts directly;
     a wider base first folds through a Montgomery reduction (valid while
     base < m*R, i.e. bit_length base <= bit_length m + 31n - 1) and two
     r2 multiplies undo the R^-1. Only oversized bases — never hit by the
     RSA paths — fall back to [modulo]. *)
  let base_m = Array.make n 0 in
  let blen = Array.length base in
  if blen <= n then begin
    Array.blit base 0 base_m 0 blen;
    mont_mul ctx base_m base_m ctx.r2
  end
  else if blen <= 2 * n && bit_length base <= bit_length ctx.m + (base_bits * n) - 1
  then begin
    Array.fill ctx.sq 0 ((2 * n) + 1) 0;
    Array.blit base 0 ctx.sq 0 blen;
    mont_reduce_scratch ctx base_m;
    mont_mul ctx base_m base_m ctx.r2;
    mont_mul ctx base_m base_m ctx.r2
  end
  else begin
    let b = modulo base ctx.m in
    Array.blit b 0 base_m 0 (Array.length b);
    mont_mul ctx base_m base_m ctx.r2
  end;
  let base_zero =
    let rec all_zero i = i >= n || (base_m.(i) = 0 && all_zero (i + 1)) in
    all_zero 0
  in
  if base_zero then if is_zero exp then modulo one ctx.m else zero
  else begin
    let nbits = bit_length exp in
    let acc = Array.make n 0 in
    if nbits <= 128 then begin
      Array.blit ctx.one_m 0 acc 0 n;
      for i = nbits - 1 downto 0 do
        mont_sqr ctx acc acc;
        if test_bit exp i then mont_mul ctx acc acc base_m
      done
    end
    else begin
      let table = Array.init 16 (fun _ -> Array.make n 0) in
      Array.blit ctx.one_m 0 table.(0) 0 n;
      Array.blit base_m 0 table.(1) 0 n;
      for i = 2 to 15 do
        mont_mul ctx table.(i) table.(i - 1) base_m
      done;
      let windows = (nbits + 3) / 4 in
      let window_value w =
        let lo = 4 * w in
        let v = ref 0 in
        for b = 3 downto 0 do
          v := (!v lsl 1) lor (if test_bit exp (lo + b) then 1 else 0)
        done;
        !v
      in
      Array.blit table.(window_value (windows - 1)) 0 acc 0 n;
      for w = windows - 2 downto 0 do
        mont_sqr ctx acc acc;
        mont_sqr ctx acc acc;
        mont_sqr ctx acc acc;
        mont_sqr ctx acc acc;
        let v = window_value w in
        if v > 0 then mont_mul ctx acc acc table.(v)
      done
    end;
    (* out of Montgomery form: acc / R mod m *)
    Array.fill ctx.sq 0 ((2 * n) + 1) 0;
    Array.blit acc 0 ctx.sq 0 n;
    mont_reduce_scratch ctx acc;
    normalize (Array.copy acc)
  end

let mod_pow_generic ~base ~exp ~modulus =
  let base = modulo base modulus in
  let acc = ref (modulo one modulus) in
  for i = bit_length exp - 1 downto 0 do
    acc := modulo (mul !acc !acc) modulus;
    if test_bit exp i then acc := modulo (mul !acc base) modulus
  done;
  !acc

let mod_pow ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if is_one modulus then zero
  else if is_even modulus then mod_pow_generic ~base ~exp ~modulus
  else mod_pow_ctx (mont_init modulus) ~base ~exp

let of_bytes_be s =
  let n = String.length s in
  if n = 0 then zero
  else begin
    (* Pack 8-bit bytes directly into 31-bit limbs. *)
    let total_bits = n * 8 in
    let limbs = ((total_bits + base_bits - 1) / base_bits) in
    let r = Array.make limbs 0 in
    for i = 0 to n - 1 do
      let byte = Char.code s.[n - 1 - i] in
      let bit = i * 8 in
      let limb = bit / base_bits and off = bit mod base_bits in
      r.(limb) <- r.(limb) lor ((byte lsl off) land base_mask);
      if off > base_bits - 8 && limb + 1 < limbs then r.(limb + 1) <- r.(limb + 1) lor (byte lsr (base_bits - off))
    done;
    normalize r
  end

let to_bytes_be a =
  let bits = bit_length a in
  let n = (bits + 7) / 8 in
  let out = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    (* byte i counts from the most significant end *)
    let lo_bit = (n - 1 - i) * 8 in
    let v = ref 0 in
    for b = 7 downto 0 do
      v := (!v lsl 1) lor (if test_bit a (lo_bit + b) then 1 else 0)
    done;
    Bytes.set out i (Char.chr !v)
  done;
  Bytes.unsafe_to_string out

let to_bytes_be_padded ~len a =
  let s = to_bytes_be a in
  let n = String.length s in
  if n > len then invalid_arg "Nat.to_bytes_be_padded: value too large";
  String.make (len - n) '\000' ^ s

let of_decimal s =
  if String.length s = 0 then invalid_arg "Nat.of_decimal: empty";
  let acc = ref zero in
  let ten = of_int 10 in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
      | _ -> invalid_arg "Nat.of_decimal: non-digit")
    s;
  !acc

let to_decimal a =
  if is_zero a then "0"
  else begin
    let chunk = of_int 1_000_000_000 in
    let rec go a acc =
      if is_zero a then acc
      else begin
        let q, r = divmod a chunk in
        let digits = to_int r in
        if is_zero q then string_of_int digits :: acc else go q (Printf.sprintf "%09d" digits :: acc)
      end
    in
    String.concat "" (go a [])
  end

let pp fmt a = Format.pp_print_string fmt (to_decimal a)

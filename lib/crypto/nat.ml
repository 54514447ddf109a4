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

(* Montgomery arithmetic for odd moduli, in radix 2^27 with Koç's finely
   integrated product scanning: column k of a product sums every limb
   product x_j*y_(k-j) and u_j*m_(k-j) in one native int, emits one limb
   and carries the rest, so the inner step is load, load, multiply, add,
   with no per-product mask, shift or store.

   Why 27 bits: a column sums at most 2n limb products, each at most
   (2^27-1)^2 < 2^54, plus its carry (below 2^35) and, when reducing a
   double-width value, one input limb. For n <= 126 limbs that stays
   under (2n+1) * 2^54 + 2^35 < 2^62, inside OCaml's 63-bit native int;
   in radix 2^31 a single product already fills it. [mont_init] rejects
   wider moduli (above 126 * 27 = 3402 bits) and [mod_pow] takes the
   generic path for them.

   [t] stays in 31-bit limbs; a context converts operands at its
   boundary into fixed-width arrays of [limbs] 27-bit limbs (< m, not
   canonicalized). The kernels run through the context's preallocated
   scratch, so a context is NOT reentrant: one exponentiation at a time
   per context ([mont_clone] gives each domain its own). Nothing here is
   constant-time: windows, zero tests and the final subtract branch on
   the data. This is a simulator, not a hardened signer. *)
let mont_bits = 27
let mont_mask = (1 lsl mont_bits) - 1
let mont_max_limbs = 126

type mont = {
  m : t;  (* modulus, canonical *)
  mw : int array;  (* the modulus in [limbs] 27-bit limbs, top nonzero *)
  n0' : int;  (* -m^-1 mod 2^27 *)
  r2 : int array;  (* R^2 mod m, R = 2^(27 * limbs) *)
  one_m : int array;  (* R mod m: Montgomery form of 1 *)
  limbs : int;
  u : int array;  (* limbs: reduction digits of the current product *)
  tmp : int array;  (* limbs + 1: result columns before the final subtract *)
  wide : int array;  (* 2 * limbs: double-width input of [mont_redc] *)
}

let mont_modulus ctx = ctx.m

(* Little-endian re-packing of [src_bits]-bit limbs into the zeroed
   [dst_bits]-bit limbs of [dst], for widths of 8 (bytes), 27 and 31;
   the accumulator never holds more than src_bits + dst_bits - 1 <= 57
   bits. Callers size [dst] for the value: only high zero limbs are
   dropped. *)
let repack ~src_bits ~dst_bits (src : int array) (dst : int array) =
  let mask = (1 lsl dst_bits) - 1 and len = Array.length dst in
  let acc = ref 0 and have = ref 0 and k = ref 0 in
  for i = 0 to Array.length src - 1 do
    acc := !acc lor (Array.unsafe_get src i lsl !have);
    have := !have + src_bits;
    while !have >= dst_bits do
      if !k < len then dst.(!k) <- !acc land mask;
      acc := !acc lsr dst_bits;
      have := !have - dst_bits;
      incr k
    done
  done;
  if !k < len then dst.(!k) <- !acc

let to_mont_limbs n (a : t) =
  let w = Array.make n 0 in
  repack ~src_bits:base_bits ~dst_bits:mont_bits a w;
  w

let of_mont_limbs (w : int array) : t =
  let r = Array.make (((mont_bits * Array.length w) + base_bits - 1) / base_bits) 0 in
  repack ~src_bits:mont_bits ~dst_bits:base_bits w r;
  normalize r

(* Fresh scratch over the same precomputed constants: cloning costs three
   small allocations instead of the divisions [mont_init] pays for R^2
   mod m. This is what makes a shared context cache domain-safe: one
   master per modulus, one clone per domain. *)
let mont_clone ctx =
  { ctx with u = Array.make ctx.limbs 0; tmp = Array.make (ctx.limbs + 1) 0; wide = Array.make (2 * ctx.limbs) 0 }

let mont_init (m : t) =
  if is_zero m || is_even m then invalid_arg "Nat.mont_init: modulus must be odd";
  let limbs = (bit_length m + mont_bits - 1) / mont_bits in
  if limbs > mont_max_limbs then invalid_arg "Nat.mont_init: modulus wider than 3402 bits";
  let mw = to_mont_limbs limbs m in
  (* Hensel lifting: five Newton steps take a 1-bit inverse to >= 32 bits. *)
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := (!inv * (2 - (mw.(0) * !inv))) land mont_mask
  done;
  let r_mod_m = modulo (shift_left one (mont_bits * limbs)) m in
  {
    m;
    mw;
    n0' = (mont_mask + 1 - !inv) land mont_mask;
    r2 = to_mont_limbs limbs (modulo (mul r_mod_m r_mod_m) m);
    one_m = to_mont_limbs limbs r_mod_m;
    limbs;
    u = Array.make limbs 0;
    tmp = Array.make (limbs + 1) 0;
    wide = Array.make (2 * limbs) 0;
  }

(* dst <- tmp mod m, where tmp holds the low [limbs] result limbs and
   [top] the final column carry, together below 2m. One data-dependent
   branch: subtract m or copy. *)
let mont_finish ctx (dst : int array) top =
  let n = ctx.limbs and m = ctx.mw and t = ctx.tmp in
  let ge =
    top > 0
    ||
    let rec cmp i = if i < 0 then true else if t.(i) <> m.(i) then t.(i) > m.(i) else cmp (i - 1) in
    cmp (n - 1)
  in
  if ge then begin
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = Array.unsafe_get t i - Array.unsafe_get m i - !borrow in
      Array.unsafe_set dst i (d land mont_mask);
      borrow := (d asr mont_bits) land 1
    done
  end
  else Array.blit t 0 dst 0 n

(* The column kernels are leaf functions: OCaml keeps a leaf's loop
   variables in registers, while a loop inside a function that also
   calls out spills them to the stack. *)

(* acc + sum of a_j*b_(k-j) + u_j*m_(k-j) for lo <= j < hi: one column of
   a product fused with its reduction, four pairs a step. *)
let mul_column acc (a : int array) (b : int array) (u : int array) (m : int array) k lo hi =
  let s = ref acc and j = ref lo in
  while !j + 4 <= hi do
    let j0 = !j in
    let i = k - j0 in
    s :=
      !s
      + (((Array.unsafe_get a j0 * Array.unsafe_get b i) + (Array.unsafe_get u j0 * Array.unsafe_get m i))
        + ((Array.unsafe_get a (j0 + 1) * Array.unsafe_get b (i - 1))
          + (Array.unsafe_get u (j0 + 1) * Array.unsafe_get m (i - 1))))
      + (((Array.unsafe_get a (j0 + 2) * Array.unsafe_get b (i - 2))
         + (Array.unsafe_get u (j0 + 2) * Array.unsafe_get m (i - 2)))
        + ((Array.unsafe_get a (j0 + 3) * Array.unsafe_get b (i - 3))
          + (Array.unsafe_get u (j0 + 3) * Array.unsafe_get m (i - 3))));
    j := j0 + 4
  done;
  while !j < hi do
    let i = k - !j in
    s := !s + (Array.unsafe_get a !j * Array.unsafe_get b i) + (Array.unsafe_get u !j * Array.unsafe_get m i);
    incr j
  done;
  !s

(* The same column of a*a: each cross product a_j*a_(k-j), j < k-j, is
   summed once and the sum doubled, and the square a_(k/2)^2 is added. *)
let sqr_column acc (a : int array) (u : int array) (m : int array) k lo hi =
  let half = (k + 1) / 2 in
  let x = ref 0 and s = ref acc and j = ref lo in
  while !j + 4 <= half do
    let j0 = !j in
    let i = k - j0 in
    x :=
      !x
      + ((Array.unsafe_get a j0 * Array.unsafe_get a i) + (Array.unsafe_get a (j0 + 1) * Array.unsafe_get a (i - 1)))
      + ((Array.unsafe_get a (j0 + 2) * Array.unsafe_get a (i - 2))
        + (Array.unsafe_get a (j0 + 3) * Array.unsafe_get a (i - 3)));
    s :=
      !s
      + ((Array.unsafe_get u j0 * Array.unsafe_get m i) + (Array.unsafe_get u (j0 + 1) * Array.unsafe_get m (i - 1)))
      + ((Array.unsafe_get u (j0 + 2) * Array.unsafe_get m (i - 2))
        + (Array.unsafe_get u (j0 + 3) * Array.unsafe_get m (i - 3)));
    j := j0 + 4
  done;
  while !j < half do
    let i = k - !j in
    x := !x + (Array.unsafe_get a !j * Array.unsafe_get a i);
    s := !s + (Array.unsafe_get u !j * Array.unsafe_get m i);
    incr j
  done;
  while !j + 4 <= hi do
    let j0 = !j in
    let i = k - j0 in
    s :=
      !s
      + ((Array.unsafe_get u j0 * Array.unsafe_get m i) + (Array.unsafe_get u (j0 + 1) * Array.unsafe_get m (i - 1)))
      + ((Array.unsafe_get u (j0 + 2) * Array.unsafe_get m (i - 2))
        + (Array.unsafe_get u (j0 + 3) * Array.unsafe_get m (i - 3)));
    j := j0 + 4
  done;
  while !j < hi do
    s := !s + (Array.unsafe_get u !j * Array.unsafe_get m (k - !j));
    incr j
  done;
  let s = !s + (2 * !x) in
  if k land 1 = 0 then s + (Array.unsafe_get a (k / 2) * Array.unsafe_get a (k / 2)) else s

(* The low n columns each fix the digit u_k that makes the column
   divisible by 2^27, and carry; the high n columns emit the result
   limbs. (a*b + u*m)/R is below 2m when a*b < m*R, so one conditional
   subtract finishes it. [dst] may alias [a] or [b]. *)
let mont_mul ctx (dst : int array) (a : int array) (b : int array) =
  let n = ctx.limbs and m = ctx.mw and u = ctx.u in
  let c = ref 0 in
  for k = 0 to n - 1 do
    (* u_k is not known yet: a_k*b_0 joins the column alone *)
    let s = mul_column !c a b u m k 0 k + (Array.unsafe_get a k * Array.unsafe_get b 0) in
    let uk = ((s land mont_mask) * ctx.n0') land mont_mask in
    Array.unsafe_set u k uk;
    c := (s + (uk * Array.unsafe_get m 0)) lsr mont_bits
  done;
  for k = n to (2 * n) - 1 do
    let s = mul_column !c a b u m k (k - n + 1) n in
    Array.unsafe_set ctx.tmp (k - n) (s land mont_mask);
    c := s lsr mont_bits
  done;
  mont_finish ctx dst !c

(* As [mont_mul] with b = a; a square's low column already holds
   a_k*a_0 as a cross product. *)
let mont_sqr ctx (dst : int array) (a : int array) =
  let n = ctx.limbs and m = ctx.mw and u = ctx.u in
  let c = ref 0 in
  for k = 0 to n - 1 do
    let s = sqr_column !c a u m k 0 k in
    let uk = ((s land mont_mask) * ctx.n0') land mont_mask in
    Array.unsafe_set u k uk;
    c := (s + (uk * Array.unsafe_get m 0)) lsr mont_bits
  done;
  for k = n to (2 * n) - 1 do
    let s = sqr_column !c a u m k (k - n + 1) n in
    Array.unsafe_set ctx.tmp (k - n) (s land mont_mask);
    c := s lsr mont_bits
  done;
  mont_finish ctx dst !c

(* dst <- wide/R mod m for the 2n-limb value in ctx.wide, below m*R:
   column k is limb k of [wide] plus the reduction products. Two or
   three of these run per exponentiation, so this loop is not unrolled. *)
let mont_redc ctx (dst : int array) =
  let n = ctx.limbs and m = ctx.mw and u = ctx.u in
  let c = ref 0 in
  for k = 0 to (2 * n) - 1 do
    let s = ref (!c + ctx.wide.(k)) in
    for j = (if k < n then 0 else k - n + 1) to (if k < n then k else n) - 1 do
      s := !s + (u.(j) * m.(k - j))
    done;
    if k < n then begin
      let uk = ((!s land mont_mask) * ctx.n0') land mont_mask in
      u.(k) <- uk;
      c := (!s + (uk * m.(0))) lsr mont_bits
    end
    else begin
      ctx.tmp.(k - n) <- !s land mont_mask;
      c := !s lsr mont_bits
    end
  done;
  mont_finish ctx dst !c

(* Two Montgomery multiplies: a*b/R, then times R^2 to cancel the R^-1.
   With a, b < m every intermediate stays below 2m, so the result is
   fully reduced and no long division is needed. *)
let mod_mul ctx (a : t) (b : t) =
  if compare a ctx.m >= 0 || compare b ctx.m >= 0 then invalid_arg "Nat.mod_mul: operand not below the modulus";
  let acc = to_mont_limbs ctx.limbs a in
  mont_mul ctx acc acc (to_mont_limbs ctx.limbs b);
  mont_mul ctx acc acc ctx.r2;
  of_mont_limbs acc

(* The 2n-limb value in ctx.wide is below m*R: its high half, read as a
   number, is below m. *)
let wide_below_m_r ctx =
  let n = ctx.limbs and w = ctx.wide and m = ctx.mw in
  let rec cmp i = i >= 0 && if w.(n + i) <> m.(i) then w.(n + i) < m.(i) else cmp (i - 1) in
  cmp (n - 1)

(* Fixed 4-bit windows: 4 squarings plus at most one table multiply per
   window, a ~17% multiply saving over binary square-and-multiply at RSA
   sizes. The 16-entry table costs 14 extra multiplies up front, well
   repaid beyond ~128-bit exponents; short exponents take the binary
   path. *)
let mod_pow_ctx ctx ~base ~exp =
  let n = ctx.limbs in
  (* Bring [base] into Montgomery form without a long division. A base
     below R converts with one r2 multiply. A base below m*R (the CRT
     shape: a 2k-bit value into a k-bit context) folds through a 2n-limb
     reduction, and two r2 multiplies undo its R^-1. Only larger bases
     pay [modulo]. *)
  let base_m = Array.make n 0 in
  let bbits = bit_length base in
  if bbits <= mont_bits * n then begin
    repack ~src_bits:base_bits ~dst_bits:mont_bits base base_m;
    mont_mul ctx base_m base_m ctx.r2
  end
  else if
    bbits <= 2 * mont_bits * n
    &&
    (Array.fill ctx.wide 0 (2 * n) 0;
     repack ~src_bits:base_bits ~dst_bits:mont_bits base ctx.wide;
     wide_below_m_r ctx)
  then begin
    mont_redc ctx base_m;
    mont_mul ctx base_m base_m ctx.r2;
    mont_mul ctx base_m base_m ctx.r2
  end
  else begin
    repack ~src_bits:base_bits ~dst_bits:mont_bits (modulo base ctx.m) base_m;
    mont_mul ctx base_m base_m ctx.r2
  end;
  if Array.for_all (fun l -> l = 0) base_m then if is_zero exp then modulo one ctx.m else zero
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
    Array.blit acc 0 ctx.wide 0 n;
    Array.fill ctx.wide n n 0;
    mont_redc ctx acc;
    of_mont_limbs acc
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
  else if is_even modulus || bit_length modulus > mont_bits * mont_max_limbs then mod_pow_generic ~base ~exp ~modulus
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

(* Bytes are 8-bit limbs, the least significant last in the string. *)
let to_bytes_be a =
  let n = (bit_length a + 7) / 8 in
  let bytes = Array.make n 0 in
  repack ~src_bits:base_bits ~dst_bits:8 a bytes;
  String.init n (fun i -> Char.unsafe_chr (Array.unsafe_get bytes (n - 1 - i)))

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

(* Arithmetic laws and known values for the bignum substrate. The RSA
   layer is only as sound as these. *)

open Worm_crypto

let nat = Alcotest.testable (Fmt.of_to_string Nat.to_decimal) Nat.equal

(* Generator: random naturals up to ~600 bits, biased toward small and
   structured values. *)
let gen_nat =
  let open QCheck.Gen in
  let small = map Nat.of_int (int_bound 1_000_000) in
  let of_bits bits =
    map
      (fun s ->
        let rng = Drbg.create ~seed:s in
        Drbg.nat_bits rng bits)
      (string_size (return 8))
  in
  frequency [ (2, small); (1, of_bits 64); (2, of_bits 256); (2, of_bits 600); (1, return Nat.zero); (1, return Nat.one) ]

let arb_nat = QCheck.make ~print:Nat.to_decimal gen_nat
let arb_pair = QCheck.make ~print:(fun (a, b) -> Nat.to_decimal a ^ "," ^ Nat.to_decimal b) QCheck.Gen.(pair gen_nat gen_nat)
let arb_triple =
  QCheck.make
    ~print:(fun (a, b, c) -> String.concat "," (List.map Nat.to_decimal [ a; b; c ]))
    QCheck.Gen.(triple gen_nat gen_nat gen_nat)

let t name = QCheck.Test.make ~name ~count:200

let prop_add_comm = t "add commutative" arb_pair (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_add_assoc =
  t "add associative" arb_triple (fun (a, b, c) ->
      Nat.equal (Nat.add (Nat.add a b) c) (Nat.add a (Nat.add b c)))

let prop_mul_comm = t "mul commutative" arb_pair (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_mul_assoc =
  t "mul associative" arb_triple (fun (a, b, c) ->
      Nat.equal (Nat.mul (Nat.mul a b) c) (Nat.mul a (Nat.mul b c)))

let prop_distrib =
  t "mul distributes over add" arb_triple (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_add_sub = t "(a+b)-b = a" arb_pair (fun (a, b) -> Nat.equal (Nat.sub (Nat.add a b) b) a)

let prop_divmod =
  t "a = b*q + r with r < b" arb_pair (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero b));
      let q, r = Nat.divmod a b in
      Nat.equal a (Nat.add (Nat.mul b q) r) && Nat.compare r b < 0)

let prop_shift_mul =
  t "shift_left k = mul 2^k" (QCheck.pair arb_nat (QCheck.int_bound 100)) (fun (a, k) ->
      Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.mod_pow ~base:Nat.two ~exp:(Nat.of_int k) ~modulus:(Nat.shift_left Nat.one 200))))

let prop_shift_inverse =
  t "shift right inverts shift left" (QCheck.pair arb_nat (QCheck.int_bound 100)) (fun (a, k) ->
      Nat.equal (Nat.shift_right (Nat.shift_left a k) k) a)

(* Zero, one byte, and values whose top byte straddles a 31-bit limb
   boundary (bit 31, 62 or 93). *)
let byte_edges =
  Nat.[ zero; one; of_int 0xFF ]
  @ List.concat_map
      (fun b -> Nat.[ pred (shift_left one b); shift_left one (b - 1) ])
      [ 32; 57; 62; 63; 64; 89; 93; 96 ]

let prop_bytes_roundtrip =
  t "bytes roundtrip"
    (QCheck.make ~print:Nat.to_decimal QCheck.Gen.(frequency [ (3, gen_nat); (1, oneofl byte_edges) ]))
    (fun a ->
      let s = Nat.to_bytes_be a in
      String.length s = (Nat.bit_length a + 7) / 8 && Nat.equal (Nat.of_bytes_be s) a)

let prop_decimal_roundtrip = t "decimal roundtrip" arb_nat (fun a -> Nat.equal (Nat.of_decimal (Nat.to_decimal a)) a)

let prop_bit_length =
  t "2^(bits-1) <= a < 2^bits" arb_nat (fun a ->
      QCheck.assume (not (Nat.is_zero a));
      let bits = Nat.bit_length a in
      Nat.compare a (Nat.shift_left Nat.one bits) < 0
      && Nat.compare a (Nat.shift_left Nat.one (bits - 1)) >= 0)

let prop_mod_pow_agrees =
  (* Montgomery (odd modulus) agrees with repeated multiplication. *)
  t "mod_pow agrees with naive" (QCheck.triple arb_nat (QCheck.int_bound 40) arb_nat) (fun (base, e, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0);
      let naive = ref (Nat.modulo Nat.one m) in
      for _ = 1 to e do
        naive := Nat.modulo (Nat.mul !naive base) m
      done;
      Nat.equal (Nat.mod_pow ~base ~exp:(Nat.of_int e) ~modulus:m) !naive)

let prop_mod_pow_homomorphism =
  (* exercises the windowed path (exponents > 128 bits): a^(e1+e2) must
     equal a^e1 * a^e2 under any odd modulus *)
  t "a^(e1+e2) = a^e1 * a^e2" arb_triple (fun (a, seed1, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0 && not (Nat.is_even m));
      let rng = Drbg.create ~seed:(Nat.to_decimal seed1) in
      let e1 = Drbg.nat_bits rng 200 and e2 = Drbg.nat_bits rng 170 in
      let lhs = Nat.mod_pow ~base:a ~exp:(Nat.add e1 e2) ~modulus:m in
      let rhs = Nat.modulo (Nat.mul (Nat.mod_pow ~base:a ~exp:e1 ~modulus:m) (Nat.mod_pow ~base:a ~exp:e2 ~modulus:m)) m in
      Nat.equal lhs rhs)

(* Moduli at the Montgomery kernel's edges: the widths 27k - 1, 27k and
   27k + 1 around its 27-bit limb boundaries (k = 1, 19, 38), each
   random, all-ones (2^k - 1), or 2^k - 2^28 + 1, whose low limb 1 drives
   every reduction digit toward its maximum. With m - 1 operands the
   last two give the largest column sums. The widest supported modulus
   joins them where the oracle is a single multiply. *)
let kernel_widths = [ 26; 27; 28; 512; 513; 514; 1025; 1026; 1027 ]
let widest_bits = 3402

let odd_modulus rng bits =
  let m = Drbg.nat_bits rng bits in
  let m = if Nat.test_bit m (bits - 1) then m else Nat.add m (Nat.shift_left Nat.one (bits - 1)) in
  if Nat.is_even m then Nat.succ m else m

let all_ones bits = Nat.pred (Nat.shift_left Nat.one bits)
let low_limb_one bits = Nat.succ (Nat.sub (Nat.shift_left Nat.one bits) (Nat.shift_left Nat.one 28))

let edge_modulus rng (bits, kind) =
  match kind with
  | 0 -> odd_modulus rng bits
  | 1 -> all_ones bits
  | _ -> if bits > 29 then low_limb_one bits else all_ones bits

(* (bits, kind for [edge_modulus]) *)
let gen_edge_shape widths = QCheck.Gen.(pair (oneofl widths) (int_bound 2))

(* Random triples (mixed widths, double-width bases: the CRT signing
   shape) plus kernel-edge moduli with bases just below and at the m*R
   limit of the wide-base path, R = 2^(27 * limbs), and exponents past
   the 128-bit switch to fixed windows. *)
let arb_ctx_case =
  let open QCheck.Gen in
  let edge =
    map
      (fun (seed, ((bits, _) as shape), pick) ->
        let rng = Drbg.create ~seed in
        let m = edge_modulus rng shape in
        let m_r = Nat.shift_left m (27 * ((bits + 26) / 27)) in
        let base = match pick with 0 -> Nat.pred m_r | 1 -> m_r | 2 -> Nat.pred m | _ -> Drbg.nat_below rng m_r in
        (base, Drbg.nat_bits rng 160, m))
      (triple (string_size (return 8)) (gen_edge_shape kernel_widths) (int_bound 3))
  in
  QCheck.make
    ~print:(fun (a, b, c) -> String.concat "," (List.map Nat.to_decimal [ a; b; c ]))
    (frequency [ (3, triple gen_nat gen_nat gen_nat); (1, edge) ])

let prop_ctx_agrees_generic =
  (* The Montgomery fast path must agree with the reference
     square-and-multiply. *)
  t "mod_pow_ctx agrees with mod_pow_generic" arb_ctx_case (fun (base, exp, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0 && not (Nat.is_even m));
      let ctx = Nat.mont_init m in
      Nat.equal (Nat.mod_pow_ctx ctx ~base ~exp) (Nat.mod_pow_generic ~base ~exp ~modulus:m))

let prop_ctx_reuse =
  (* One cached context across many exponentiations: scratch-buffer
     reuse must not leak state between calls. *)
  t "context reuse is stateless" arb_pair (fun (m, seed) ->
      QCheck.assume (Nat.compare m Nat.two > 0 && not (Nat.is_even m));
      let ctx = Nat.mont_init m in
      let rng = Drbg.create ~seed:(Nat.to_decimal seed) in
      List.for_all
        (fun _ ->
          let base = Drbg.nat_bits rng 300 and exp = Drbg.nat_bits rng 80 in
          Nat.equal (Nat.mod_pow_ctx ctx ~base ~exp) (Nat.mod_pow_generic ~base ~exp ~modulus:m))
        [ (); (); (); () ])

let test_mont_ctx () =
  Alcotest.check_raises "mont_init even" (Invalid_argument "Nat.mont_init: modulus must be odd")
    (fun () -> ignore (Nat.mont_init (Nat.of_int 10)));
  Alcotest.check_raises "mont_init zero" (Invalid_argument "Nat.mont_init: modulus must be odd")
    (fun () -> ignore (Nat.mont_init Nat.zero));
  let m = Nat.of_int 1_000_000_007 in
  let ctx = Nat.mont_init m in
  Alcotest.check nat "mont_modulus" m (Nat.mont_modulus ctx);
  Alcotest.check nat "ctx mod_pow known" (Nat.of_int 976371285)
    (Nat.mod_pow_ctx ctx ~base:Nat.two ~exp:(Nat.of_int 100));
  Alcotest.check nat "ctx base multiple of m" Nat.zero
    (Nat.mod_pow_ctx ctx ~base:(Nat.mul m (Nat.of_int 7)) ~exp:(Nat.of_int 5));
  Alcotest.check nat "ctx zero exponent" Nat.one (Nat.mod_pow_ctx ctx ~base:(Nat.of_int 42) ~exp:Nat.zero);
  (* The widest modulus the kernel takes, and one limb beyond it: a named
     rejection, where mod_pow falls back to the generic path. *)
  let rng = Drbg.create ~seed:"widest" in
  let cubes label m =
    List.iter
      (fun b ->
        Alcotest.check nat (label ^ ": cube") (Nat.modulo (Nat.mul (Nat.mul b b) b) m)
          (Nat.mod_pow ~base:b ~exp:(Nat.of_int 3) ~modulus:m))
      [ Nat.pred m; Drbg.nat_below rng m ]
  in
  List.iter
    (fun kind ->
      let m = edge_modulus rng (widest_bits, kind) in
      let label = Printf.sprintf "widest, kind %d" kind in
      Alcotest.check nat (label ^ ": (m-1)^2") Nat.one (Nat.mod_mul (Nat.mont_init m) (Nat.pred m) (Nat.pred m));
      cubes label m)
    [ 0; 1; 2 ];
  let beyond = all_ones (widest_bits + 1) in
  Alcotest.check_raises "mont_init one limb too wide" (Invalid_argument "Nat.mont_init: modulus wider than 3402 bits")
    (fun () -> ignore (Nat.mont_init beyond));
  cubes "generic fallback one limb too wide" beyond

(* Odd moduli of 64-2048 bits, kernel-edge and widest moduli, with
   operands below them, biased toward the edges 0 and m - 1. *)
let arb_mod_mul_case =
  let open QCheck.Gen in
  let shape =
    frequency
      [ (2, map (fun bits -> (bits, 0)) (int_range 64 2048)); (2, gen_edge_shape (widest_bits :: kernel_widths)) ]
  in
  let gen =
    map
      (fun (seed, shape, pick_a, pick_b) ->
        let rng = Drbg.create ~seed in
        let m = edge_modulus rng shape in
        let operand = function 0 -> Nat.zero | 1 | 2 -> Nat.pred m | _ -> Drbg.nat_below rng m in
        (m, operand pick_a, operand pick_b))
      (quad (string_size (return 8)) shape (int_bound 5) (int_bound 5))
  in
  QCheck.make ~print:(fun (m, a, b) -> String.concat "," (List.map Nat.to_decimal [ m; a; b ])) gen

let prop_mod_mul =
  t "mod_mul agrees with mul then modulo" arb_mod_mul_case (fun (m, a, b) ->
      Nat.equal (Nat.mod_mul (Nat.mont_init m) a b) (Nat.modulo (Nat.mul a b) m))

let test_mod_mul_edges () =
  let m = Nat.of_int 1_000_000_007 in
  let ctx = Nat.mont_init m in
  Alcotest.check nat "(m-1)^2 = 1" Nat.one (Nat.mod_mul ctx (Nat.pred m) (Nat.pred m));
  Alcotest.check nat "zero operand" Nat.zero (Nat.mod_mul ctx Nat.zero (Nat.pred m));
  Alcotest.check_raises "operand = m" (Invalid_argument "Nat.mod_mul: operand not below the modulus") (fun () ->
      ignore (Nat.mod_mul ctx m Nat.one))

let prop_rem_int =
  t "rem_int agrees with modulo" (QCheck.pair arb_nat (QCheck.int_range 1 0x7FFFFFFF)) (fun (a, d) ->
      Nat.rem_int a d = Nat.to_int (Nat.modulo a (Nat.of_int d)))

let test_rem_int_edges () =
  let a = Nat.pred (Nat.shift_left Nat.one 600) in
  List.iter
    (fun d -> Alcotest.(check int) (string_of_int d) (Nat.to_int (Nat.modulo a (Nat.of_int d))) (Nat.rem_int a d))
    [ 1; 2; 3; 251; 65537; 0x7FFFFFFE; 0x7FFFFFFF ];
  Alcotest.(check int) "zero dividend" 0 (Nat.rem_int Nat.zero 7);
  List.iter
    (fun d ->
      Alcotest.check_raises (string_of_int d) (Invalid_argument "Nat.rem_int: divisor outside [1, 2^31)") (fun () ->
          ignore (Nat.rem_int a d)))
    [ 0; -3; 0x80000000 ]

let prop_mod_inverse =
  t "mod_inverse correct" arb_pair (fun (a, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0);
      match Nat.mod_inverse a m with
      | Some x -> Nat.equal (Nat.modulo (Nat.mul (Nat.modulo a m) x) m) Nat.one
      | None -> not (Nat.is_one (Nat.gcd a m)))

let prop_gcd_divides =
  t "gcd divides both" arb_pair (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero a) || not (Nat.is_zero b));
      let g = Nat.gcd a b in
      QCheck.assume (not (Nat.is_zero g));
      Nat.is_zero (Nat.modulo a g) && Nat.is_zero (Nat.modulo b g))

let test_known_values () =
  Alcotest.check nat "small mul" (Nat.of_int 1_000_000) (Nat.mul (Nat.of_int 1000) (Nat.of_int 1000));
  let a = Nat.of_decimal "340282366920938463463374607431768211456" (* 2^128 *) in
  Alcotest.check nat "2^128" a (Nat.shift_left Nat.one 128);
  Alcotest.(check int) "bit_length 2^128" 129 (Nat.bit_length a);
  Alcotest.check nat "pred/succ" a (Nat.succ (Nat.pred a));
  (* 2^100 mod (1e9+7) *)
  Alcotest.check nat "mod_pow known" (Nat.of_int 976371285)
    (Nat.mod_pow ~base:Nat.two ~exp:(Nat.of_int 100) ~modulus:(Nat.of_int 1_000_000_007));
  (* even modulus path *)
  Alcotest.check nat "mod_pow even modulus" (Nat.of_int 743)
    (Nat.mod_pow ~base:(Nat.of_int 7) ~exp:(Nat.of_int 11) ~modulus:(Nat.of_int 1000));
  (* Fermat: 3^(p-1) = 1 mod p for prime p = 2^61-1 *)
  let p = Nat.of_decimal "2305843009213693951" in
  Alcotest.check nat "fermat M61" Nat.one (Nat.mod_pow ~base:(Nat.of_int 3) ~exp:(Nat.pred p) ~modulus:p)

let test_edge_cases () =
  Alcotest.(check bool) "zero is zero" true (Nat.is_zero Nat.zero);
  Alcotest.(check int) "bit_length zero" 0 (Nat.bit_length Nat.zero);
  Alcotest.check nat "zero bytes" Nat.zero (Nat.of_bytes_be "");
  Alcotest.check nat "leading zero bytes" (Nat.of_int 258) (Nat.of_bytes_be "\x00\x00\x01\x02");
  Alcotest.(check string) "to_bytes zero" "" (Nat.to_bytes_be Nat.zero);
  Alcotest.(check string) "padded" "\x00\x00\x01\x02" (Nat.to_bytes_be_padded ~len:4 (Nat.of_int 258));
  Alcotest.check_raises "padding too small" (Invalid_argument "Nat.to_bytes_be_padded: value too large")
    (fun () -> ignore (Nat.to_bytes_be_padded ~len:1 (Nat.of_int 258)));
  Alcotest.check_raises "negative of_int" (Invalid_argument "Nat.of_int: negative") (fun () ->
      ignore (Nat.of_int (-1)));
  Alcotest.check_raises "sub underflow" (Invalid_argument "Nat.sub: negative result") (fun () ->
      ignore (Nat.sub Nat.one Nat.two));
  (match Nat.divmod Nat.one Nat.zero with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "divide by zero accepted");
  Alcotest.(check (option int)) "to_int_opt big" None (Nat.to_int_opt (Nat.shift_left Nat.one 80));
  Alcotest.(check (option int)) "to_int_opt max" (Some max_int) (Nat.to_int_opt (Nat.of_int max_int));
  Alcotest.check nat "modulo by one" Nat.zero (Nat.modulo (Nat.of_int 12345) Nat.one)

let suite =
  [
    ("known values", `Quick, test_known_values);
    ("edge cases", `Quick, test_edge_cases);
    QCheck_alcotest.to_alcotest prop_add_comm;
    QCheck_alcotest.to_alcotest prop_add_assoc;
    QCheck_alcotest.to_alcotest prop_mul_comm;
    QCheck_alcotest.to_alcotest prop_mul_assoc;
    QCheck_alcotest.to_alcotest prop_distrib;
    QCheck_alcotest.to_alcotest prop_add_sub;
    QCheck_alcotest.to_alcotest prop_divmod;
    QCheck_alcotest.to_alcotest prop_shift_mul;
    QCheck_alcotest.to_alcotest prop_shift_inverse;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_decimal_roundtrip;
    QCheck_alcotest.to_alcotest prop_bit_length;
    QCheck_alcotest.to_alcotest prop_mod_pow_agrees;
    QCheck_alcotest.to_alcotest prop_mod_pow_homomorphism;
    ("montgomery context", `Quick, test_mont_ctx);
    QCheck_alcotest.to_alcotest prop_ctx_agrees_generic;
    QCheck_alcotest.to_alcotest prop_ctx_reuse;
    QCheck_alcotest.to_alcotest prop_mod_mul;
    ("mod_mul edges", `Quick, test_mod_mul_edges);
    QCheck_alcotest.to_alcotest prop_rem_int;
    ("rem_int edges", `Quick, test_rem_int_edges);
    QCheck_alcotest.to_alcotest prop_mod_inverse;
    QCheck_alcotest.to_alcotest prop_gcd_divides;
  ]

let () = Alcotest.run "worm_nat" [ ("nat", suite) ]

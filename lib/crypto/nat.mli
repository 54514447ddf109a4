(** Arbitrary-precision natural numbers.

    Pure OCaml: little-endian arrays of 31-bit limbs. Values are
    canonical (no leading zero limbs), so structural equality of the
    underlying representation coincides with numeric equality.

    This is the bignum substrate for the RSA implementation — the sealed
    build environment ships no zarith, so the reproduction carries its
    own. Performance targets the paper's key sizes (512–2048 bits):
    schoolbook multiplication and Montgomery exponentiation.

    {b Simulator arithmetic, not constant-time.} The Montgomery kernel's
    final subtract, the exponent windows, the zero tests and the long
    division all branch on secret data, and running times depend on
    operand values. Acceptable for a simulator; never ship it where an
    attacker can time the host. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Invalid_argument if the value exceeds [max_int]. *)

val to_int_opt : t -> int option

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val succ : t -> t

val sub : t -> t -> t
(** Truncated subtraction. @raise Invalid_argument if the result would
    be negative. *)

val pred : t -> t
(** @raise Invalid_argument on zero. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. @raise Division_by_zero. *)

val div : t -> t -> t
val modulo : t -> t -> t

val rem_int : t -> int -> int
(** [rem_int a d] is [a mod d] for a one-limb divisor, in one pass over
    the limbs with no bignum allocation — the trial-division sieve of
    key generation.
    @raise Invalid_argument unless [1 <= d < 2^31]. *)

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val gcd : t -> t -> t

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a * x = 1 (mod m)] when
    [gcd a m = 1], otherwise [None]. *)

type mont
(** Precomputed Montgomery context for a fixed odd modulus of at most
    3402 bits. It holds the modulus in 27-bit limbs, the limb inverse,
    [R^2 mod m] with [R = 2^(27 * limbs)], and preallocated scratch for
    the product-scanning kernel: each result column sums all its limb
    products in one native int, which 27-bit limbs keep below 2^62 up
    to 126 limbs. Operands convert from and to the canonical 31-bit
    limbs of {!t} at the context's boundary. Building one costs a full
    division ([R^2 mod m]); cache it per key and pass it to
    {!mod_pow_ctx} to keep that cost off the signing hot path. A
    context's scratch is reused across calls, so a single context must
    not be used from two concurrent exponentiations (fine
    single-threaded). *)

val mont_init : t -> mont
(** @raise Invalid_argument if the modulus is zero or even, or wider
    than 3402 bits (126 limbs of 27 bits), past which a column sum could
    overflow a native int. *)

val mont_clone : mont -> mont
(** A context over the same modulus sharing the precomputed constants
    but carrying fresh scratch buffers. Cloning is three small
    allocations, against the full division {!mont_init} pays — so a
    cache can hold one master context per modulus and hand each domain
    its own clone, keeping contexts single-threaded without re-running
    the setup. *)

val mont_modulus : mont -> t

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation. Uses Montgomery reduction for odd moduli up
    to 3402 bits and the generic square-and-multiply fallback otherwise
    (even or wider moduli). Builds a fresh
    Montgomery context per call — for repeated exponentiations under one
    modulus, build the context once and use {!mod_pow_ctx}.
    @raise Division_by_zero on a zero modulus. *)

val mod_pow_ctx : mont -> base:t -> exp:t -> t
(** [mod_pow_ctx ctx ~base ~exp] is [base^exp mod (mont_modulus ctx)]
    through the Montgomery kernel with fixed 4-bit windows and no
    per-call setup — the signing hot path for cached per-key contexts.
    A base below [m * R] (the CRT shape: a double-width value into a
    half-width context) enters without a long division. *)

val mod_mul : mont -> t -> t -> t
(** [mod_mul ctx a b] is [a * b mod (mont_modulus ctx)], computed as two
    Montgomery multiplies (the second by [R^2]) with no long division.
    @raise Invalid_argument unless both operands are below the modulus. *)

val mod_pow_generic : base:t -> exp:t -> modulus:t -> t
(** Reference square-and-multiply implementation (no Montgomery forms,
    any modulus). Slow; exposed as the cross-check oracle for the
    Montgomery kernel, and the path {!mod_pow} takes where the kernel
    does not apply. *)

val of_bytes_be : string -> t
(** Big-endian bytes to natural. The empty string is zero. *)

val to_bytes_be : t -> string
(** Minimal big-endian encoding; zero encodes as the empty string. *)

val to_bytes_be_padded : len:int -> t -> string
(** Fixed-width big-endian encoding, zero-padded on the left.
    @raise Invalid_argument if the value needs more than [len] bytes. *)

val of_decimal : string -> t
(** @raise Invalid_argument on empty or non-digit input. *)

val to_decimal : t -> string
val pp : Format.formatter -> t -> unit

(** AES-128 (FIPS 197) with CTR mode (SP 800-38A). Pure OCaml.

    The paper's requirements include storage {e confidentiality} (§1),
    and the IBM 4764's CCA provides symmetric encryption services; this
    is the at-rest cipher for the {!Worm_core.Vault} layer.

    Word-oriented T-table core: a state column is one 32-bit word, and
    each round is sixteen lookups into four 256-entry tables (S-box,
    ShiftRows and MixColumns folded together) plus the round-key words.
    The S-box and tables are computed at module init; keys and tables
    are immutable, so every function here is domain-safe.

    {b Simulator cipher, not constant-time.} Every table index is a
    secret-dependent byte, and the four T-tables (8 KiB of native ints)
    span many more cache lines than a single byte-wide S-box, so
    cache-timing attacks recover the key more easily than against a
    byte-oriented AES. Acceptable for a simulator; never ship it where an
    attacker can share a core, a cache or a timer with the host. *)

type key

val key_of_string : string -> key
(** @raise Invalid_argument unless exactly 16 bytes. *)

val encrypt_block : key -> string -> string
(** One 16-byte block (the raw forward cipher).
    @raise Invalid_argument on wrong block size. *)

val ctr : key -> nonce:string -> string -> string
(** CTR-mode keystream XOR over arbitrary-length input: encryption and
    decryption are the same operation. [nonce] is 8 bytes; the block
    counter occupies the remaining 8 (big-endian, starting at 0), so a
    single nonce is good for 2{^68} bytes.
    @raise Invalid_argument on a wrong-sized nonce. *)

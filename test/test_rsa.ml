(* RSA signatures, primality, and certificates. Key generation is the
   slow part, so a few shared keys are generated once and reused. *)

open Worm_crypto
module Clock = Worm_simclock.Clock

let rng = Drbg.create ~seed:"test-rsa"
let key512 = lazy (Rsa.generate rng ~bits:512)
let key1024 = lazy (Rsa.generate rng ~bits:1024)

(* ---------- primality ---------- *)

let test_small_primes () =
  let prime_list = [ 2; 3; 5; 7; 11; 101; 257; 65537; 1_000_000_007 ] in
  List.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (Prime.is_probably_prime rng (Nat.of_int p)))
    prime_list;
  let composite_list = [ 0; 1; 4; 9; 255; 65535; 1_000_000_006; 561 (* Carmichael *); 41041 ] in
  List.iter
    (fun c -> Alcotest.(check bool) (string_of_int c) false (Prime.is_probably_prime rng (Nat.of_int c)))
    composite_list

let test_known_large_prime () =
  (* 2^127 - 1 is a Mersenne prime; 2^127 + 1 is divisible by 3. *)
  let m127 = Nat.pred (Nat.shift_left Nat.one 127) in
  Alcotest.(check bool) "M127 prime" true (Prime.is_probably_prime rng m127);
  Alcotest.(check bool) "2^127+1 composite" false
    (Prime.is_probably_prime rng (Nat.succ (Nat.shift_left Nat.one 127)))

let test_generated_prime_shape () =
  let p = Prime.generate rng ~bits:96 in
  Alcotest.(check int) "exact bit width" 96 (Nat.bit_length p);
  Alcotest.(check bool) "odd" false (Nat.is_even p);
  Alcotest.(check bool) "probably prime" true (Prime.is_probably_prime rng p);
  Alcotest.(check bool) "second-highest bit set" true (Nat.test_bit p 94)

(* ---------- RSA sign/verify ---------- *)

let test_sign_verify_roundtrip () =
  let key = Lazy.force key512 in
  let pub = Rsa.public_of key in
  let s = Rsa.sign key "message" in
  Alcotest.(check int) "signature width" 64 (String.length s);
  Alcotest.(check bool) "verifies" true (Rsa.verify pub ~msg:"message" ~signature:s);
  Alcotest.(check bool) "wrong message" false (Rsa.verify pub ~msg:"messag3" ~signature:s);
  Alcotest.(check bool) "empty message" true
    (Rsa.verify pub ~msg:"" ~signature:(Rsa.sign key ""))

let test_signature_tamper_detected () =
  let key = Lazy.force key512 in
  let pub = Rsa.public_of key in
  let s = Bytes.of_string (Rsa.sign key "message") in
  Bytes.set s 10 (Char.chr (Char.code (Bytes.get s 10) lxor 1));
  Alcotest.(check bool) "bitflip rejected" false (Rsa.verify pub ~msg:"message" ~signature:(Bytes.to_string s));
  Alcotest.(check bool) "truncation rejected" false
    (Rsa.verify pub ~msg:"message" ~signature:(String.sub (Bytes.to_string s) 0 63));
  Alcotest.(check bool) "empty signature rejected" false (Rsa.verify pub ~msg:"message" ~signature:"")

let test_cross_key_rejected () =
  let k1 = Lazy.force key512 and k2 = Lazy.force key1024 in
  let s = Rsa.sign k1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Rsa.verify (Rsa.public_of k2) ~msg:"msg" ~signature:s);
  (* a modulus wider than the Montgomery kernel takes is checked on the
     generic path, pooled or not, and never raises *)
  let wide = { Rsa.n = Nat.pred (Nat.shift_left Nat.one 3403); e = Nat.of_int 65537 } in
  let s = String.make 426 '\x5a' in
  Alcotest.(check bool) "wide key rejects" false (Rsa.verify wide ~msg:"msg" ~signature:s);
  Alcotest.(check (list bool)) "wide key rejects, pooled" [ false; false ]
    (Worm_util.Pool.with_pool ~domains:2 (fun pool -> Rsa.verify_batch ~pool wide [ ("a", s); ("b", s) ]))

let test_raw_roundtrip () =
  List.iter
    (fun key ->
      let key = Lazy.force key in
      let pub = Rsa.public_of key in
      let n = pub.Rsa.n in
      List.iter
        (fun m ->
          let c = Rsa.raw_apply_secret key m in
          Alcotest.(check bool)
            (Printf.sprintf "CRT private op inverts public op (%d bits)" (Nat.bit_length n))
            true
            (Nat.equal m (Rsa.raw_apply_public pub c)))
        (Nat.zero :: Nat.one :: Nat.pred n :: List.init 8 (fun _ -> Drbg.nat_below rng n)))
    [ key512; key1024 ]

(* Key generation and signing are deterministic from the seed; these
   values pin them, so a faster prime search or recombination cannot
   silently change which keys or signatures the system produces. *)
let test_known_answers () =
  let ca = Rsa.generate (Drbg.create ~seed:"perfbench-keys|ca") ~bits:1024 in
  Alcotest.(check string) "perfbench CA fingerprint" "9b6d088137ce7098" (Rsa.fingerprint (Rsa.public_of ca));
  let key = Rsa.generate (Drbg.create ~seed:"kat-512") ~bits:512 in
  Alcotest.(check string) "512-bit key fingerprint" "9a179eb810e4316f" (Rsa.fingerprint (Rsa.public_of key));
  let msg = "strong worm known answer" in
  Alcotest.(check string) "512-bit signature"
    "29dfc13df9ae960adf7a3bc79ae1db4c74072230c24ffe8bff36baf1b5a0c110\
     4bafb5d6f6775573e7b6648fd08edd1d1232faa1511615a32371b7a34a5a0831"
    (Worm_util.Hex.encode (Rsa.sign key msg));
  Alcotest.(check string) "1024-bit signature"
    "95bd5c0bc9454c44ad7bef8a921cf59c2a160b0fc04406b9d63237c885047a6d\
     82a46136140d2aa4438e5ef3bff2e6f39790aead7024af9aeb08195d54aced2b\
     939cced9da9c2b50a3e243ec2a94d574873f577cc60a6875474beddcaec44743\
     7c89ceabcfa9ffe57ab0c31c9e46d1c62be7e255716e74e2bfa40fdb9a9ec4ad"
    (Worm_util.Hex.encode (Rsa.sign ca msg))

let test_sign_batch () =
  let key = Lazy.force key512 in
  let pub = Rsa.public_of key in
  let msgs = [ ""; "a"; "batch message"; String.make 300 'x' ] in
  let sigs = Rsa.sign_batch key msgs in
  Alcotest.(check int) "one signature per message" (List.length msgs) (List.length sigs);
  Alcotest.(check (list string)) "batch equals sequential" (List.map (Rsa.sign key) msgs) sigs;
  List.iter2
    (fun msg signature -> Alcotest.(check bool) "batch signature verifies" true (Rsa.verify pub ~msg ~signature))
    msgs sigs;
  Alcotest.(check (list string)) "empty batch" [] (Rsa.sign_batch key [])

let prop_sign_verify =
  QCheck.Test.make ~name:"sign/verify on random messages" ~count:30 QCheck.string (fun msg ->
      let key = Lazy.force key512 in
      Rsa.verify (Rsa.public_of key) ~msg ~signature:(Rsa.sign key msg))

let prop_signature_not_transferable =
  QCheck.Test.make ~name:"signature bound to its message" ~count:30
    QCheck.(pair string string)
    (fun (m1, m2) ->
      QCheck.assume (not (String.equal m1 m2));
      let key = Lazy.force key512 in
      not (Rsa.verify (Rsa.public_of key) ~msg:m2 ~signature:(Rsa.sign key m1)))

let test_generate_rejects_small () =
  Alcotest.check_raises "under 512" (Invalid_argument "Rsa.generate: modulus below 512 bits") (fun () ->
      ignore (Rsa.generate rng ~bits:256))

let test_public_codec () =
  let pub = Rsa.public_of (Lazy.force key512) in
  let encoded = Worm_util.Codec.encode Rsa.encode_public pub in
  match Worm_util.Codec.decode Rsa.decode_public encoded with
  | Ok pub' -> Alcotest.(check bool) "roundtrip" true (Rsa.equal_public pub pub')
  | Error e -> Alcotest.fail e

let test_fingerprint_stable () =
  let pub = Rsa.public_of (Lazy.force key512) in
  Alcotest.(check string) "deterministic" (Rsa.fingerprint pub) (Rsa.fingerprint pub);
  Alcotest.(check int) "16 hex chars" 16 (String.length (Rsa.fingerprint pub));
  let other = Rsa.public_of (Lazy.force key1024) in
  Alcotest.(check bool) "distinct keys, distinct prints" false
    (String.equal (Rsa.fingerprint pub) (Rsa.fingerprint other))

(* ---------- certificates ---------- *)

let test_cert_lifecycle () =
  let ca = Lazy.force key1024 in
  let subject_key = Rsa.public_of (Lazy.force key512) in
  let cert =
    Cert.issue ~ca ~subject:"device-1/signing" ~role:Cert.Scpu_signing ~key:subject_key ~not_before:100L
      ~not_after:1000L
  in
  let ca_pub = Rsa.public_of ca in
  Alcotest.(check bool) "valid inside window" true (Cert.verify ~ca:ca_pub ~now:500L cert);
  Alcotest.(check bool) "not yet valid" false (Cert.verify ~ca:ca_pub ~now:50L cert);
  Alcotest.(check bool) "expired" false (Cert.verify ~ca:ca_pub ~now:1001L cert);
  Alcotest.(check bool) "wrong CA" false (Cert.verify ~ca:subject_key ~now:500L cert)

let test_cert_tamper_detected () =
  let ca = Lazy.force key1024 in
  let subject_key = Rsa.public_of (Lazy.force key512) in
  let cert =
    Cert.issue ~ca ~subject:"device-1/signing" ~role:Cert.Scpu_signing ~key:subject_key ~not_before:0L
      ~not_after:1000L
  in
  let ca_pub = Rsa.public_of ca in
  Alcotest.(check bool) "subject swap rejected" false
    (Cert.verify ~ca:ca_pub ~now:5L { cert with Cert.subject = "device-2/signing" });
  Alcotest.(check bool) "role swap rejected" false
    (Cert.verify ~ca:ca_pub ~now:5L { cert with Cert.role = Cert.Regulation_authority });
  Alcotest.(check bool) "validity extension rejected" false
    (Cert.verify ~ca:ca_pub ~now:5L { cert with Cert.not_after = Int64.max_int })

let test_cert_codec () =
  let ca = Lazy.force key1024 in
  let cert =
    Cert.issue ~ca ~subject:"dev/deletion" ~role:Cert.Scpu_deletion
      ~key:(Rsa.public_of (Lazy.force key512))
      ~not_before:0L ~not_after:(Clock.ns_of_years 10.)
  in
  let encoded = Worm_util.Codec.encode Cert.encode cert in
  match Worm_util.Codec.decode Cert.decode encoded with
  | Ok cert' ->
      Alcotest.(check bool) "roundtrip verifies" true
        (Cert.verify ~ca:(Rsa.public_of ca) ~now:5L cert');
      Alcotest.(check string) "subject preserved" cert.Cert.subject cert'.Cert.subject
  | Error e -> Alcotest.fail e

let suite =
  [
    ("small primes classified", `Quick, test_small_primes);
    ("large prime classified", `Quick, test_known_large_prime);
    ("generated prime shape", `Quick, test_generated_prime_shape);
    ("sign/verify roundtrip", `Quick, test_sign_verify_roundtrip);
    ("tampered signature rejected", `Quick, test_signature_tamper_detected);
    ("cross-key rejected", `Quick, test_cross_key_rejected);
    ("raw CRT roundtrip", `Quick, test_raw_roundtrip);
    ("known-answer keys and signatures", `Quick, test_known_answers);
    ("batch signing", `Quick, test_sign_batch);
    ("small modulus rejected", `Quick, test_generate_rejects_small);
    ("public key codec", `Quick, test_public_codec);
    ("fingerprint stable", `Quick, test_fingerprint_stable);
    ("cert lifecycle", `Quick, test_cert_lifecycle);
    ("cert tamper detected", `Quick, test_cert_tamper_detected);
    ("cert codec", `Quick, test_cert_codec);
    QCheck_alcotest.to_alcotest prop_sign_verify;
    QCheck_alcotest.to_alcotest prop_signature_not_transferable;
  ]

let () = Alcotest.run "worm_rsa" [ ("rsa", suite) ]

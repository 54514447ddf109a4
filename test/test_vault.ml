(* AES and the at-rest encryption vault. *)

open Worm_core
open Worm_testkit.Testkit
module Aes = Worm_crypto.Aes
module Hex = Worm_util.Hex
module Disk = Worm_simdisk.Disk
module Pool = Worm_util.Pool
module Ref_aes = Worm_testkit.Ref_aes

(* ---------- AES primitives ---------- *)

let test_fips197_vector () =
  let key = Aes.key_of_string (Hex.decode "000102030405060708090a0b0c0d0e0f") in
  let ct = Aes.encrypt_block key (Hex.decode "00112233445566778899aabbccddeeff") in
  Alcotest.(check string) "FIPS 197 appendix C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (Hex.encode ct)

let test_aes_arg_validation () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.key_of_string: need 16 bytes") (fun () ->
      ignore (Aes.key_of_string "short"));
  let key = Aes.key_of_string (String.make 16 'k') in
  Alcotest.check_raises "short block" (Invalid_argument "Aes.encrypt_block: need 16 bytes") (fun () ->
      ignore (Aes.encrypt_block key "short"));
  Alcotest.check_raises "bad nonce" (Invalid_argument "Aes.ctr: nonce must be 8 bytes") (fun () ->
      ignore (Aes.ctr key ~nonce:"xx" "data"))

let prop_ctr_involution =
  QCheck.Test.make ~name:"ctr is its own inverse" ~count:100
    QCheck.(pair string (string_of_size (QCheck.Gen.return 8)))
    (fun (data, nonce) ->
      let key = Aes.key_of_string "0123456789abcdef" in
      String.equal (Aes.ctr key ~nonce (Aes.ctr key ~nonce data)) data)

let prop_ctr_nonce_separates =
  QCheck.Test.make ~name:"different nonces, different streams" ~count:50
    QCheck.(string_of_size (QCheck.Gen.int_range 16 200))
    (fun data ->
      let key = Aes.key_of_string "0123456789abcdef" in
      not (String.equal (Aes.ctr key ~nonce:"nonce-01" data) (Aes.ctr key ~nonce:"nonce-02" data)))

let test_ctr_lengths () =
  let key = Aes.key_of_string "0123456789abcdef" in
  List.iter
    (fun n ->
      let data = String.make n 'x' in
      let enc = Aes.ctr key ~nonce:"12345678" data in
      Alcotest.(check int) "length preserved" n (String.length enc);
      Alcotest.(check string) "roundtrip" data (Aes.ctr key ~nonce:"12345678" enc))
    [ 0; 1; 15; 16; 17; 31; 32; 1000 ]

(* SP 800-38A F.5.1 (CTR-AES128.Encrypt): ciphertext block i is the
   plaintext XOR the encryption of counter block i. *)
let test_sp800_38a_ctr () =
  let key = Aes.key_of_string (Hex.decode "2b7e151628aed2a6abf7158809cf4f3c") in
  let xor a b = String.init (String.length a) (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i])) in
  List.iter
    (fun (counter, plain, cipher) ->
      let ct = xor (Hex.decode plain) (Aes.encrypt_block key (Hex.decode counter)) in
      Alcotest.(check string) counter cipher (Hex.encode ct))
    [
      ("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff", "6bc1bee22e409f96e93d7e117393172a", "874d6191b620e3261bef6864990db6ce");
      ("f0f1f2f3f4f5f6f7f8f9fafbfcfdff00", "ae2d8a571e03ac9c9eb76fac45af8e51", "9806f66b7970fdff8617187bb9fffdff");
      ("f0f1f2f3f4f5f6f7f8f9fafbfcfdff01", "30c81c46a35ce411e5fbc1191a0a52ef", "5ae4df3edbd5d35e5b4f09020db03eab");
      ("f0f1f2f3f4f5f6f7f8f9fafbfcfdff02", "f69f2445df4f9b17ad2b417be66c3710", "1e031dda2fbe03d1792170a0f3009cee");
    ]

let be64 b = String.init 8 (fun i -> Char.chr ((b lsr (8 * (7 - i))) land 0xff))

(* Block b of the stream is data XOR E(nonce || be64 b). *)
let test_ctr_counter_layout () =
  let key = Aes.key_of_string "counter-layout-k" and nonce = "layout-n" in
  let data = Worm_crypto.Drbg.generate (Worm_crypto.Drbg.create ~seed:"ctr-layout") (16 * 4096) in
  let ct = Aes.ctr key ~nonce data in
  List.iter
    (fun b ->
      let ks = Aes.encrypt_block key (nonce ^ be64 b) in
      let want = String.init 16 (fun i -> Char.chr (Char.code data.[(16 * b) + i] lxor Char.code ks.[i])) in
      Alcotest.(check string) (Printf.sprintf "block %d" b) (Hex.encode want) (Hex.encode (String.sub ct (16 * b) 16)))
    [ 0; 1; 255; 256; 4095 ]

let test_ctr_pooled_matches_sequential () =
  let key = Aes.key_of_string "pooled-ctr-key!!" in
  let drbg = Worm_crypto.Drbg.create ~seed:"ctr-pool" in
  let inputs =
    Array.init 32 (fun i -> (Printf.sprintf "nonce%03d" i, Worm_crypto.Drbg.generate drbg ((i * 517) mod 4099)))
  in
  let seal (nonce, data) = Aes.ctr key ~nonce data in
  let pooled = Pool.with_pool ~domains:2 (fun pool -> Pool.parallel_map pool seal inputs) in
  Alcotest.(check (array string)) "pooled = sequential" (Array.map seal inputs) pooled

let key_gen = QCheck.Gen.string_size (QCheck.Gen.return 16)
let nonce_gen = QCheck.Gen.string_size (QCheck.Gen.return 8)

let ctr_equal k ~nonce data =
  String.equal (Aes.ctr (Aes.key_of_string k) ~nonce data) (Ref_aes.ctr (Ref_aes.key_of_string k) ~nonce data)

let prop_ctr_matches_reference =
  QCheck.Test.make ~name:"ctr = reference, lengths 0-300" ~count:500
    (QCheck.make QCheck.Gen.(triple key_gen nonce_gen (string_size (int_range 0 300))))
    (fun (k, nonce, data) -> ctr_equal k ~nonce data)

(* Each case checks every length around the 4 KiB block size and 64 KiB. *)
let prop_ctr_matches_reference_large =
  QCheck.Test.make ~name:"ctr = reference, lengths 4095-65536" ~count:4
    (QCheck.make QCheck.Gen.(triple key_gen nonce_gen (string_size (return 65536))))
    (fun (k, nonce, data) ->
      List.for_all (fun n -> ctr_equal k ~nonce (String.sub data 0 n)) [ 4095; 4096; 4097; 65536 ])

let prop_block_matches_reference =
  QCheck.Test.make ~name:"encrypt_block = reference" ~count:500
    (QCheck.make QCheck.Gen.(pair key_gen (string_size (return 16))))
    (fun (k, block) ->
      String.equal (Aes.encrypt_block (Aes.key_of_string k) block)
        (Ref_aes.encrypt_block (Ref_aes.key_of_string k) block))

(* ---------- the vault ---------- *)

let vault_env () = fresh_env ~config:{ Worm.default_config with Worm.encrypt_at_rest = true } ()

let test_vault_key_stable () =
  let env = vault_env () in
  let fw = Worm.firmware env.store in
  let v1 = Vault.create fw and v2 = Vault.create fw in
  Alcotest.(check string) "same device+store, same key" (Vault.key_fingerprint v1) (Vault.key_fingerprint v2);
  let sealed = Vault.seal v1 ~sn:(Serial.of_int 7) ~index:0 "plaintext" in
  Alcotest.(check string) "cross-instance unseal" "plaintext"
    (Vault.unseal v2 ~sn:(Serial.of_int 7) ~index:0 sealed)

let test_vault_nonce_separation () =
  let env = vault_env () in
  let v =
    match Worm.vault env.store with
    | Some v -> v
    | None -> Alcotest.fail "vault missing"
  in
  let s1 = Vault.seal v ~sn:(Serial.of_int 1) ~index:0 "same plaintext" in
  let s2 = Vault.seal v ~sn:(Serial.of_int 2) ~index:0 "same plaintext" in
  let s3 = Vault.seal v ~sn:(Serial.of_int 1) ~index:1 "same plaintext" in
  Alcotest.(check bool) "sn separates" false (String.equal s1 s2);
  Alcotest.(check bool) "index separates" false (String.equal s1 s3)

(* The nonce is the low 48 bits of the serial, then the 16-bit index,
   both big-endian. *)
let test_vault_nonce_layout () =
  let k = "tenant-record-k!" in
  let v = Vault.of_key k in
  let sn = Serial.of_int64 0x1_0203_0405_0607L in
  let data = String.init 40 Char.chr in
  Alcotest.(check string) "seal = ctr under (sn48 || index16)"
    (Hex.encode (Aes.ctr (Aes.key_of_string k) ~nonce:(Hex.decode "020304050607abcd") data))
    (Hex.encode (Vault.seal v ~sn ~index:0xabcd data));
  Alcotest.check_raises "index range" (Invalid_argument "Vault: block index out of range") (fun () ->
      ignore (Vault.seal v ~sn ~index:0x10000 data))

let test_platters_hold_ciphertext () =
  let env = vault_env () in
  let secret = "the merger closes friday at $12/share" in
  let sn = write env ~blocks:[ secret ] () in
  (* normal reads still serve and verify plaintext *)
  check_verdict "read verifies" "valid-data" env sn;
  (match Worm.read env.store sn with
  | Proof.Found { blocks; _ } -> Alcotest.(check (list string)) "plaintext served" [ secret ] blocks
  | r -> Alcotest.fail (Proof.describe r));
  (* but an imaged platter shows only ciphertext *)
  let rd =
    match Vrdt.find (Worm.vrdt env.store) sn with
    | Some (Vrdt.Active vrd) -> List.hd vrd.Vrd.rdl
    | _ -> Alcotest.fail "missing"
  in
  match Disk.Raw.residue env.disk rd with
  | Some on_platter ->
      Alcotest.(check bool) "no plaintext on media" false (String.equal on_platter secret);
      Alcotest.(check int) "same length (CTR)" (String.length secret) (String.length on_platter)
  | None -> Alcotest.fail "block unreadable"

let test_vault_with_host_hash_and_maintenance () =
  let config =
    { Worm.default_config with Worm.encrypt_at_rest = true; datasig_mode = Worm.Host_hash }
  in
  let env = fresh_env ~config () in
  let sn = write env ~witness:Firmware.Weak_deferred ~blocks:[ "burst secret" ] () in
  (* strengthening + audit must unseal before handing data to the SCPU *)
  Worm.idle_tick env.store;
  Alcotest.(check int) "audit cleared" 0 (List.length (Worm.audit_backlog env.store));
  check_verdict "verifies after maintenance" "valid-data" env sn

let test_vault_expiry_shreds_ciphertext () =
  let env = vault_env () in
  let sn = write env ~policy:(short_policy ~retention_s:10. ()) ~blocks:[ "ephemeral" ] () in
  ignore (expire_all env ~after_s:20.);
  check_verdict "deleted with proof" "properly-deleted" env sn

let test_vault_tamper_still_detected () =
  (* encryption must not weaken integrity: flipping ciphertext bytes is
     caught exactly like plaintext tampering *)
  let env = vault_env () in
  let sn = write env ~blocks:[ "protected" ] () in
  let mallory = Adversary.create env.store in
  Alcotest.(check bool) "tampered" true (Adversary.tamper_record_data mallory sn);
  match verdict env sn with
  | Client.Violation _ -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_vault_survives_restart () =
  let config = { Worm.default_config with Worm.encrypt_at_rest = true } in
  let env = fresh_env ~config () in
  let sn = write env ~blocks:[ "survives reboots" ] () in
  let blob = Worm.save_host_state env.store in
  match Worm.restore ~config ~firmware:(Worm.firmware env.store) ~disk:env.disk ~host_state:blob () with
  | Error e -> Alcotest.fail e
  | Ok store' -> begin
      match Worm.read store' sn with
      | Proof.Found { blocks; _ } ->
          Alcotest.(check (list string)) "key re-derived, plaintext back" [ "survives reboots" ] blocks
      | r -> Alcotest.fail (Proof.describe r)
    end

let test_vault_dedup_rejected () =
  let config = { Worm.default_config with Worm.encrypt_at_rest = true; dedup = true } in
  Alcotest.check_raises "incompatible"
    (Invalid_argument "Worm.create: dedup and encrypt_at_rest cannot be combined") (fun () ->
      ignore (fresh_env ~config ()))

let prop_vault_roundtrip =
  QCheck.Test.make ~name:"vault store roundtrip" ~count:10
    QCheck.(small_list (string_of_size (QCheck.Gen.int_bound 300)))
    (fun payloads ->
      QCheck.assume (payloads <> []);
      let env = vault_env () in
      let sn = write env ~blocks:payloads () in
      match Worm.read env.store sn with
      | Proof.Found { blocks; _ } -> blocks = payloads
      | _ -> false)

let suite =
  [
    ("FIPS 197 vector", `Quick, test_fips197_vector);
    ("AES argument validation", `Quick, test_aes_arg_validation);
    ("CTR lengths", `Quick, test_ctr_lengths);
    ("SP 800-38A F.5.1 CTR-AES128", `Quick, test_sp800_38a_ctr);
    ("CTR counter layout", `Quick, test_ctr_counter_layout);
    ("CTR pooled = sequential", `Quick, test_ctr_pooled_matches_sequential);
    ("vault key stable", `Quick, test_vault_key_stable);
    ("vault nonce separation", `Quick, test_vault_nonce_separation);
    ("vault nonce layout", `Quick, test_vault_nonce_layout);
    ("platters hold ciphertext", `Quick, test_platters_hold_ciphertext);
    ("vault + host-hash maintenance", `Quick, test_vault_with_host_hash_and_maintenance);
    ("vault expiry", `Quick, test_vault_expiry_shreds_ciphertext);
    ("tamper still detected", `Quick, test_vault_tamper_still_detected);
    ("vault survives restart", `Quick, test_vault_survives_restart);
    ("vault + dedup rejected", `Quick, test_vault_dedup_rejected);
    QCheck_alcotest.to_alcotest prop_ctr_involution;
    QCheck_alcotest.to_alcotest prop_ctr_nonce_separates;
    QCheck_alcotest.to_alcotest prop_ctr_matches_reference;
    QCheck_alcotest.to_alcotest prop_ctr_matches_reference_large;
    QCheck_alcotest.to_alcotest prop_block_matches_reference;
    QCheck_alcotest.to_alcotest prop_vault_roundtrip;
  ]

let () = Alcotest.run "worm_vault" [ ("vault", suite) ]

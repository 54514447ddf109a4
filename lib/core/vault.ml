module Aes = Worm_crypto.Aes
module Device = Worm_scpu.Device

(* [fp_source] is the secret the fingerprint is hashed from; it is only
   hashed when {!key_fingerprint} asks, so per-record ciphers pay
   nothing for it. *)
type t = { key : Aes.key; fp_source : string }

let create fw =
  let dev = Firmware.device fw in
  (* Derived inside the enclosure from the device's internal MAC key:
     deterministic per (device, store), never stored on the host disk. *)
  let secret = Device.hmac_tag dev ("worm:vault-key|" ^ Firmware.store_id fw) in
  { key = Aes.key_of_string (String.sub secret 0 16); fp_source = secret }

(* A cipher over a caller-supplied key: used for per-record tenant keys
   out of the SCPU key hierarchy ({!Firmware.record_key}). *)
let of_key key_bytes =
  if String.length key_bytes <> 16 then invalid_arg "Vault.of_key: need a 16-byte key";
  { key = Aes.key_of_string key_bytes; fp_source = key_bytes }

let key_fingerprint t = String.sub (Worm_crypto.Sha256.hex_digest ("worm:vault-fp|" ^ t.fp_source)) 0 16

(* The low 48 bits of the serial, then the 16-bit block index. *)
let nonce ~sn ~index =
  if index < 0 || index > 0xffff then invalid_arg "Vault: block index out of range";
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.logor (Int64.shift_left (Serial.to_int64 sn) 16) (Int64.of_int index));
  Bytes.unsafe_to_string b

let seal t ~sn ~index block = Aes.ctr t.key ~nonce:(nonce ~sn ~index) block
let unseal = seal

(* Shared fixtures for the test suites: one lazily generated CA, cheap
   deterministic device/store provisioning with 512-bit keys (same code
   paths as production sizes, ~10x faster key generation). *)

open Worm_core
module Device = Worm_scpu.Device
module Clock = Worm_simclock.Clock
module Disk = Worm_simdisk.Disk
module Rsa = Worm_crypto.Rsa
module Drbg = Worm_crypto.Drbg

let rng = Drbg.create ~seed:"testkit-rng"
let ca = lazy (Rsa.generate rng ~bits:1024)
let ca_pub () = Rsa.public_of (Lazy.force ca)

let counter = ref 0

type env = {
  clock : Clock.t;
  device : Device.t;
  store : Worm.t;
  client : Client.t;
  disk : Disk.t;
}

(* [seed] names the device; two environments built from one seed are
   the same store (keys, store id) on separate clocks. *)
let fresh_env ?seed ?(config = Worm.default_config) ?(device_config = Device.test_config)
    ?(disk_latency = Disk.zero_latency) () =
  incr counter;
  let seed, name =
    match seed with
    | Some s -> (s, "scpu-" ^ s)
    | None -> (Printf.sprintf "env-%d" !counter, Printf.sprintf "scpu-%d" !counter)
  in
  let clock = Clock.create () in
  let device = Device.provision ~seed ~clock ~ca:(Lazy.force ca) ~config:device_config ~name () in
  let disk = Disk.create ~latency:disk_latency () in
  let store = Worm.create ~config ~disk ~device ~ca:(ca_pub ()) () in
  let client = Client.for_store ~ca:(ca_pub ()) ~clock store in
  { clock; device; store; client; disk }

let short_policy ?(retention_s = 100.) () =
  Policy.custom ~name:"test-short" ~retention_ns:(Clock.ns_of_sec retention_s) ~shred_passes:1

let write env ?witness ?(blocks = [ "payload" ]) ?policy () =
  let policy =
    match policy with
    | Some p -> p
    | None -> short_policy ()
  in
  Worm.write ?witness env.store ~policy ~blocks

(* Write n records with the given retention seconds, returning their SNs. *)
let write_n env ?witness ?(retention_s = 100.) n =
  List.init n (fun i ->
      write env ?witness ~blocks:[ Printf.sprintf "record-%d" i ] ~policy:(short_policy ~retention_s ()) ())

let expire_all env ~after_s =
  Clock.advance env.clock (Clock.ns_of_sec after_s);
  Worm.expire_due env.store

let verdict env sn = Client.verify_read env.client ~sn (Worm.read env.store sn)

let check_verdict name expected env sn =
  Alcotest.(check string) name expected (Client.verdict_name (verdict env sn))

let fresh_authority env =
  incr counter;
  Authority.create ~ca:(Lazy.force ca) ~clock:env.clock ~rng ~name:(Printf.sprintf "authority-%d" !counter)

(* Wall-clock benchmark of the real Strong WORM path.

   One process, one domain. Writes go as [Message.Write] requests into
   [Server.handle_bytes]; reads come back as [Client.verify_read]
   verdicts; remote audits run through [Remote_client]; local audits
   through [Scrubber]; maintenance through [Worm]'s idle functions.
   Workloads (see README.md in this directory):

   - ingest     closed loop, one client, strong wire writes of 1-64 KiB,
                half of them tenant-sealed
   - audit      closed loop, one client, verified reads over a preloaded
                store with every proof shape, then remote audits and
                scrub passes
   - burst_day  open loop of burst (weak writes + reads of recent
                records) and idle (reads + sliced maintenance) cycles

   [--trace 0] prints the end-to-end metrics; [--trace 1] is a separate
   run with spans around every call into a layer that prints the
   per-layer metrics. The last stdout line is one JSON object.

   End-to-end times are host-speed-normalised (see [Speed]): a fixed
   reference kernel runs between the measured operations, and each
   operation's wall time is scaled by the kernel's speed around it. The
   [#] lines also give the plain wall-clock figures. *)

open Worm_core
module Device = Worm_scpu.Device
module Clock = Worm_simclock.Clock
module Disk = Worm_simdisk.Disk
module Rsa = Worm_crypto.Rsa
module Drbg = Worm_crypto.Drbg
module Sha256 = Worm_crypto.Sha256
module Aes = Worm_crypto.Aes
module Message = Worm_proto.Message
module Server = Worm_proto.Server
module Remote_client = Worm_proto.Remote_client
module Scrubber = Worm_audit.Scrubber
module Report = Worm_audit.Report

let now_ns = Span.now_ns
let us ns = float_of_int ns /. 1e3
let sec ns = float_of_int ns /. 1e9
let ratio a b = if b = 0. then 0. else a /. b

(* ---------- arguments ---------- *)

type args = { workload : string; seed : int; seconds : int; trace : bool; trace_out : string option }

let usage () =
  prerr_endline
    "usage: wormbench --workload ingest|audit|burst_day --seed N --seconds N --trace 0|1 [--trace-out FILE]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None and out = ref None in
  let int_arg s = match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage () in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := Some w;
        go rest
    | "--seed" :: n :: rest ->
        seed := Some (int_arg n);
        go rest
    | "--seconds" :: n :: rest ->
        seconds := Some (int_arg n);
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | "--trace-out" :: f :: rest ->
        out := Some f;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when List.mem w [ "ingest"; "audit"; "burst_day" ] && seconds >= 1 ->
      { workload = w; seed; seconds; trace; trace_out = !out }
  | _ -> usage ()

(* ---------- outcome accounting ---------- *)

let attempted = ref 0
let failed = ref 0

let failure fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      if !failed <= 20 then prerr_endline ("perfbench: FAILED " ^ s))
    fmt

(* An honest store never earns a violation verdict: that is a broken
   Theorem 1/2, not a slow run, so the benchmark stops without a result. *)
let violation fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: VIOLATION from an honest store: " ^ s);
      exit 3)
    fmt

let fatal fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 1)
    fmt

(* ---------- seeded inputs ---------- *)

let uniform rng = float_of_int (Drbg.int_below rng 1_000_000_000) /. 1e9
let below = Drbg.int_below
let pool_bytes = 1 lsl 20
let max_record = 65536

(* Record payloads are slices of one seeded pool, so a payload can be
   regenerated for the read-back check from its (offset, length). *)
let make_pool rng = Drbg.generate rng (pool_bytes + max_record)

let blocks_of pool ~off ~len =
  let block = 4096 in
  List.init ((len + block - 1) / block) (fun i -> String.sub pool (off + (i * block)) (min block (len - (i * block))))

(* ---------- the system under test ---------- *)

type env = {
  ca : Rsa.secret;
  ca_pub : Rsa.public;
  clock : Clock.t;
  device : Device.t;
  store : Worm.t;
  server : Server.t;
  client : Client.t;
}

(* Fills the tracer's counter vector (layout in [Span]); O(1) reads only. *)
let probe env buf off =
  let s = Device.stats env.device in
  let m = Server.global_memo_stats () in
  let vh, vm =
    match Client.verify_cache_stats env.client with
    | Some c -> (c.Client.cache_hits, c.Client.cache_misses)
    | None -> (0, 0)
  in
  let set k v = buf.(off + k) <- v in
  set Span.c_strong s.Device.strong_signs;
  set Span.c_weak s.Device.weak_signs;
  set Span.c_deletion s.Device.deletion_signs;
  set Span.c_sign_calls s.Device.sign_calls;
  set Span.c_hash_bytes s.Device.hash_bytes;
  set Span.c_scpu_ns (Int64.to_int (Device.busy_ns env.device));
  set Span.c_host_ns (Int64.to_int (Worm.host_busy_ns env.store));
  set Span.c_disk_ns (Int64.to_int (Disk.busy_ns (Worm.disk env.store)));
  set Span.c_memo_hits m.Server.memo_hits;
  set Span.c_memo_misses m.Server.memo_misses;
  set Span.c_vc_hits vh;
  set Span.c_vc_misses vm

(* Keys come from fixed seeds, not from [--seed]: they are the system's
   identity rather than workload input, and fixed keys make set-up the
   same work in every run. *)
let key_seed = "perfbench-keys"

let build_env config =
  let ca = Rsa.generate (Drbg.create ~seed:(key_seed ^ "|ca")) ~bits:1024 in
  ignore (Speed.tick ());
  let ca_pub = Rsa.public_of ca in
  let clock = Clock.create () in
  let device = Device.provision ~seed:key_seed ~clock ~ca ~name:"perfbench-scpu" () in
  ignore (Speed.tick ());
  let store = Worm.create ~config ~device ~ca:ca_pub () in
  let server = Server.create store in
  let client =
    match Message.decode_response (Server.handle_bytes server (Message.encode_request Message.Hello)) with
    | Ok (Message.Hello_ack { store_id; signing_cert; deletion_cert }) -> begin
        match Client.connect ~ca:ca_pub ~clock ~signing_cert ~deletion_cert ~store_id () with
        | Ok c -> c
        | Error e -> fatal "client refused the served certificates: %s" e
      end
    | _ -> fatal "hello failed"
  in
  let env = { ca; ca_pub; clock; device; store; server; client } in
  Span.set_probe (probe env);
  env

(* ---------- the wire ---------- *)

let handle_span = function
  | Message.Write { tenant = ""; _ } -> "server.handle_write_plain"
  | Message.Write _ -> "server.handle_write_sealed"
  | Message.Read _ -> "server.handle_read"
  | Message.Audit_slice _ -> "server.handle_audit_slice"
  | Message.Hello -> "server.handle_hello"
  | _ -> "server.handle_other"

(* Exactly the public calls [Server.handle_bytes] makes, one span each,
   with its error handling: the traced transport serves the same bytes
   (checked by [transport_parity]). *)
let traced_handle_bytes server bytes =
  match Span.run "proto.decode_request" (fun () -> Message.decode_request bytes) with
  | Error e -> Message.encode_response (Message.Protocol_error e)
  | Ok request -> begin
      match
        Span.run "server.refresh" (fun () -> Server.refresh server);
        let response = Span.run (handle_span request) (fun () -> Server.handle server request) in
        Span.run "proto.encode_response" (fun () -> Server.encode_response server response)
      with
      | reply -> reply
      | exception exn -> Message.encode_response (Message.Protocol_error ("dispatch failed: " ^ Printexc.to_string exn))
    end

let transport env bytes =
  if Span.enabled () then traced_handle_bytes env.server bytes else Server.handle_bytes env.server bytes

(* Wire bytes per phase and request kind, both directions. *)
let io : (string, int * int) Hashtbl.t = Hashtbl.create 16

let note_io kind nbytes =
  let key = !Span.phase ^ "/" ^ kind in
  let n, b = Option.value (Hashtbl.find_opt io key) ~default:(0, 0) in
  Hashtbl.replace io key (n + 1, b + nbytes)

let exchange env kind request =
  let bytes = Span.run "proto.encode_request" (fun () -> Message.encode_request request) in
  let reply = transport env bytes in
  let response = Span.run "proto.decode_response" (fun () -> Message.decode_response reply) in
  note_io kind (String.length bytes + String.length reply);
  response

(* Work units done inside traced phases (records strengthened, bytes
   written, ...), keyed by phase; the per-layer rates divide by them. *)
let units : (string, int) Hashtbl.t = Hashtbl.create 16

let add_units name k =
  if Span.enabled () then begin
    let key = !Span.phase ^ "/" ^ name in
    Hashtbl.replace units key (k + Option.value (Hashtbl.find_opt units key) ~default:0)
  end

let get_units phases name =
  List.fold_left (fun acc p -> acc + Option.value (Hashtbl.find_opt units (p ^ "/" ^ name)) ~default:0) 0 phases

let wire_write env ~policy ~tenant ~blocks =
  incr attempted;
  let bytes = List.fold_left (fun acc b -> acc + String.length b) 0 blocks in
  add_units (if tenant = "" then "plain_bytes" else "sealed_bytes") bytes;
  Span.root "req.write" (fun () ->
      match exchange env "write" (Message.Write { policy; tenant; blocks }) with
      | Ok (Message.Write_ack { sn }) -> Some sn
      | Ok r ->
          failure "write answered %s" (Message.describe_response r);
          None
      | Error e ->
          failure "undecodable write reply: %s" e;
          None)

let verify_span = function
  | Proof.Found _ -> "client.verify_live"
  | Proof.Proof_deleted _ -> "client.verify_deleted"
  | Proof.Proof_in_window _ -> "client.verify_window"
  | Proof.Proof_below_base _ | Proof.Proof_unallocated _ -> "client.verify_absent"
  | Proof.Erased _ -> "client.verify_erased"
  | Proof.Refused _ -> "client.verify_refused"

type expect =
  | Live of string option  (** [Valid_data], with the exact content when given *)
  | Gone  (** [Properly_deleted] *)
  | Absent  (** [Never_written] *)

let expect_name = function Live _ -> "valid-data" | Gone -> "properly-deleted" | Absent -> "never-written"

(* One verified read, checked against the verdict the benchmark expects. *)
let checked_read env sn expect =
  incr attempted;
  let verdict =
    Span.root "req.read" (fun () ->
        match exchange env "read" (Message.Read sn) with
        | Ok (Message.Read_reply { sn = got; response }) when Serial.equal got sn ->
            Some (Span.run (verify_span response) (fun () -> Client.verify_read env.client ~sn response))
        | Ok r ->
            failure "read %s answered %s" (Serial.to_string sn) (Message.describe_response r);
            None
        | Error e ->
            failure "undecodable read reply: %s" e;
            None)
  in
  match (verdict, expect) with
  | None, _ -> ()
  | Some (Client.Violation _ as v), _ -> violation "read %s: %s" (Serial.to_string sn) (Client.verdict_name v)
  | Some (Client.Valid_data { blocks; _ }), Live (Some content) ->
      if not (String.equal (String.concat "" blocks) content) then
        failure "read %s: content differs from what was written" (Serial.to_string sn)
  | Some (Client.Valid_data _), Live None | Some Client.Properly_deleted, Gone | Some Client.Never_written, Absent -> ()
  | Some v, e -> failure "read %s: expected %s, got %s" (Serial.to_string sn) (expect_name e) (Client.verdict_name v)

(* ---------- maintenance ---------- *)

let maint_ns = ref 0

let maint name f =
  let t0 = now_ns () in
  let r = Span.root name f in
  maint_ns := !maint_ns + (now_ns () - t0);
  r

(* Records the retention monitor handed over for deletion at the very
   instant their retention ends, which the firmware refuses because
   retention lapses only after that instant ([Vexp.pop_due] takes
   [expiry <= now], [Attr.is_expired] wants [now > expiry]). The store
   re-feeds them and deletes them on a later pass, and no client sees a
   wrong answer, so they are counted and printed rather than failed. *)
let expiry_refusals = ref 0

(* Runs the retention monitor. [check] gets the virtual time of the pass
   and every record the store handed over, with its outcome, and returns
   how many of them were deleted as expected. *)
let expire env check =
  let now = Clock.now env.clock in
  let results = maint "worm.expire_due" (fun () -> Worm.expire_due env.store) in
  attempted := !attempted + List.length results;
  List.iter
    (fun (sn, r) ->
      match r with
      | Ok () -> add_units "expired" 1
      | Error (Firmware.Not_expired _) -> incr expiry_refusals
      | Error e -> failure "expiry of %s: %s" (Serial.to_string sn) (Firmware.error_to_string e))
    results;
  check ~now results

(* For stores in which nothing may expire. *)
let nothing_expires ~now:_ results =
  List.iter (fun (sn, _) -> failure "record %s expired inside its retention" (Serial.to_string sn)) results;
  0

let strengthen env ~max =
  let n = maint "worm.strengthen_pending" (fun () -> Worm.strengthen_pending env.store ~max ()) in
  add_units "strengthened" n

let run_audits env ~max =
  let o = maint "worm.run_audits" (fun () -> Worm.run_audits env.store ~max ()) in
  add_units "audited" o.Worm.audited;
  List.iter
    (fun (sn, e) -> failure "idle audit of %s: %s" (Serial.to_string sn) (Firmware.error_to_string e))
    o.Worm.mismatches;
  o.Worm.audited

let compact env = ignore (maint "worm.compact_windows" (fun () -> Worm.compact_windows env.store))
let refresh env = maint "server.refresh" (fun () -> Server.refresh env.server)

(* Every idle function once, draining whatever is due: the end-of-run
   pass of ingest and the post-preload pass of audit. *)
let idle_pass env check =
  maint "worm.heartbeat" (fun () -> Worm.heartbeat env.store);
  strengthen env ~max:max_int;
  ignore (run_audits env ~max:max_int);
  ignore (maint "worm.refeed_vexp" (fun () -> Worm.refeed_vexp env.store));
  ignore (expire env check);
  compact env;
  refresh env

(* ---------- crypto calibration ---------- *)

(* Timings of the crypto primitives at the SCPU's key sizes on the
   workload's own record sizes. They are sampled at three points of the
   traced run (after set-up, after the timed loop, at the end), so that
   one slow phase of a shared machine does not set them alone. *)
type crypto_inputs = { msgs : string list; payloads : string list; weak_key : Rsa.secret; aes_key : Aes.key; nonce : string }

let crypto_inputs : crypto_inputs option ref = ref None
let crypto_samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let make_crypto_inputs rng ~size =
  let pool = make_pool rng in
  { msgs = List.init 16 (fun i -> String.sub pool (i * 200) 160);
    payloads = List.init 64 (fun _ -> String.sub pool (below rng pool_bytes) (size rng));
    weak_key = Rsa.generate (Drbg.create ~seed:(key_seed ^ "|weak-calibration")) ~bits:512;
    aes_key = Aes.key_of_string (String.sub pool 0 16); nonce = String.sub pool 16 8 }

let sample_crypto env =
  match !crypto_inputs with
  | Some c when Span.enabled () ->
      let phase = !Span.phase in
      Span.set_phase "calib";
      let sample name ~per f =
        for _ = 1 to 2 do
          let t0 = now_ns () in
          Span.root name f;
          let v = per (now_ns () - t0) in
          Hashtbl.replace crypto_samples name (v :: Option.value (Hashtbl.find_opt crypto_samples name) ~default:[])
        done
      in
      let per_op ns = us ns /. float_of_int (List.length c.msgs) in
      let bytes = List.fold_left (fun acc p -> acc + String.length p) 0 c.payloads in
      let mb_per_s ns = float_of_int bytes /. float_of_int ns *. 1e3 in
      let sigs = List.map (Rsa.sign env.ca) c.msgs in
      sample "crypto.rsa1024_sign" ~per:per_op (fun () -> List.iter (fun m -> ignore (Rsa.sign env.ca m)) c.msgs);
      sample "crypto.rsa512_sign" ~per:per_op (fun () -> List.iter (fun m -> ignore (Rsa.sign c.weak_key m)) c.msgs);
      sample "crypto.rsa1024_verify" ~per:per_op (fun () ->
          List.iter2
            (fun m sg -> if not (Rsa.verify env.ca_pub ~msg:m ~signature:sg) then fatal "calibration signature failed")
            c.msgs sigs);
      sample "crypto.sha256" ~per:mb_per_s (fun () -> List.iter (fun p -> ignore (Sha256.digest p)) c.payloads);
      sample "crypto.aes_ctr" ~per:mb_per_s (fun () -> List.iter (fun p -> ignore (Aes.ctr c.aes_key ~nonce:c.nonce p)) c.payloads);
      Span.set_phase phase
  | _ -> ()

let crypto name = Stats.median_list (Option.value (Hashtbl.find_opt crypto_samples name) ~default:[ 0. ])

(* ---------- timing ---------- *)

(* Latencies (µs) of one kind of operation, host-speed-normalised and
   plain wall-clock. *)
type series = { norm : Stats.samples; wall : Stats.samples }

let series () = { norm = Stats.create (); wall = Stats.create () }

(* Runs one closed-loop operation and records its latency, normalised at
   the speed measured by the ticks on either side of it: the one after it
   and the previous one. *)
let timed s f =
  let t0 = now_ns () in
  let r = f () in
  let wall = now_ns () - t0 in
  ignore (Speed.tick ());
  Stats.add s.norm (float_of_int wall *. Speed.rate () /. 1e3);
  Stats.add s.wall (us wall);
  r

(* Closed-loop rate: operations per second of the client's time. *)
let rate s = float_of_int (Stats.count s) /. (Stats.sum s /. 1e6)

(* Wall time of [f] without the speed ticks inside it. *)
let wall_ns t0 k0 = now_ns () - t0 - (!Speed.spent - k0)

(* Repeats [f] at least three times and until one second of wall time
   has passed (at most 25 times). Returns the median normalised and wall
   durations (ns) and the last result. *)
let repeat_median f =
  let rec go norms walls total =
    let n0 = Speed.tick () in
    let t0 = now_ns () and k0 = !Speed.spent in
    let r = f () in
    let dt = wall_ns t0 k0 in
    let norms = ((Speed.tick () -. n0) :: norms) and walls = (float_of_int dt :: walls) and total = total + dt in
    if (List.length norms >= 3 && total >= 1_000_000_000) || List.length norms >= 25 then
      (Stats.median_list norms, Stats.median_list walls, r)
    else go norms walls total
  in
  go [] [] 0

(* ---------- set-up ---------- *)

let setup_reps = 3

(* Set up [setup_reps] times from scratch and keep the last system; the
   set-up time is the median (normalised, then wall, in s). Only the last
   repetition is traced. *)
let run_setup args f =
  let norms = ref [] and walls = ref [] and last = ref None in
  for rep = 1 to setup_reps do
    let final = rep = setup_reps in
    Span.enable (args.trace && final);
    Span.set_phase "setup";
    maint_ns := 0;
    let n0 = Speed.tick () in
    let t0 = now_ns () and k0 = !Speed.spent in
    let r = f ~final in
    walls := sec (wall_ns t0 k0) :: !walls;
    norms := ((Speed.tick () -. n0) /. 1e9) :: !norms;
    last := Some r
  done;
  sample_crypto (Option.get !last);
  (Option.get !last, (Stats.median_list !norms, Stats.median_list !walls))

(* ---------- end-of-run audits ---------- *)

type audit_result = {
  serials : int;
  sweep_ns : float;  (** normalised *)
  sweep_wall_ns : float;
  round_trips : int;
  retries : int;
  scrub_ns : float;  (** normalised *)
  scrub_wall_ns : float;
  findings : int;
}

(* Full remote audits over [Audit_slice] and full scrub passes, each from
   a fresh client (cold verify memo), with a speed tick after every round
   trip and every scrub slice. *)
let audits env =
  sample_crypto env;
  Span.set_phase "sweep";
  let serials = Serial.to_int (Firmware.sn_current (Worm.firmware env.store)) in
  let ticking bytes =
    let reply = transport env bytes in
    ignore (Speed.tick ());
    reply
  in
  let sweep_ns, sweep_wall_ns, (audit, retries) =
    repeat_median (fun () ->
        incr attempted;
        let rc =
          match Remote_client.connect ~ca:env.ca_pub ~clock:env.clock ticking with
          | Ok rc -> rc
          | Error e -> fatal "remote client refused the store: %s" e
        in
        let a = Span.root "remote.run_remote_audit" (fun () -> Remote_client.run_remote_audit rc) in
        (match a.Remote_client.violations with
        | (sn, v) :: _ -> violation "remote audit at %s: %s" (Serial.to_string sn) (Client.verdict_name v)
        | [] -> ());
        if a.Remote_client.resume <> None then failure "remote audit stopped early";
        let retries = (Remote_client.transport_stats rc).Remote_client.retries in
        if retries <> 0 then failure "remote audit needed %d retries on a clean transport" retries;
        (a, retries))
  in
  Span.set_phase "scrub";
  let scrub_ns, scrub_wall_ns, report =
    repeat_median (fun () ->
        incr attempted;
        let client = Client.for_store ~ca:env.ca_pub ~clock:env.clock env.store in
        let scrubber = Scrubber.create ~store:env.store ~client () in
        (* [Scrubber.run_pass], one slice at a time. *)
        let report =
          Span.root "scrubber.run_pass" (fun () ->
              while not (Scrubber.run_slice scrubber).Scrubber.pass_completed do
                ignore (Speed.tick ())
              done;
              Option.get (Scrubber.last_report scrubber))
        in
        if not (Report.clean report) then failure "scrub: %s" (Report.summary report);
        report)
  in
  { serials; sweep_ns; sweep_wall_ns; round_trips = audit.Remote_client.round_trips; retries; scrub_ns; scrub_wall_ns;
    findings = List.length report.Report.findings }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ---------- workload results ---------- *)

type result = {
  setup_s : float * float;  (** normalised, wall *)
  ops : int;  (** foreground operations in the timed loop *)
  timed_ns : int;
  ops_per_s : float * float;  (** normalised, wall *)
  writes : series;
  reads : series;
  extra : (string * float * string) list;  (** printed on the [#] lines only *)
  late : Stats.samples;  (** µs; open loop only *)
  audit : audit_result;
  maintenance_ns : int;
  maintained_writes : int;
  live_bytes : int;
  env : env;
  write_phases : string list;  (** phases whose spans carry the write accounting *)
  write_roots : Span.t -> bool;
  read_phases : string list;
  loop_phases : string list;  (** phases of the timed loop, [timed_ns] long *)
  loop_kernel_ns : int;  (** speed-kernel time inside the timed loop *)
  deferred_peak : int;
  calib_sns : Serial.t list;  (** reads representative of the workload, for the tracer-overhead pairs *)
}

let storage_ratio r =
  let m = Worm.metrics r.env.store in
  float_of_int (m.Worm.m_disk_bytes + m.Worm.m_vrdt_bytes) /. float_of_int r.live_bytes

(* Rounds until [seconds] have passed on the normalised clock, so that
   a run does the same work on a slow host as on a fast one; returns the
   wall time taken and the part of it spent in the speed kernel. *)
let timed_rounds ~seconds round =
  let t0 = now_ns () and k0 = !Speed.spent in
  let stop = Speed.tick () +. (float_of_int seconds *. 1e9) in
  while Speed.now () < stop do
    round ()
  done;
  (now_ns () - t0, !Speed.spent - k0)

let log_uniform_size rng = int_of_float (1024. *. (2. ** (6. *. uniform rng)))

(* ---------- ingest ---------- *)

let ingest_round = 256

let ingest args =
  let policy = Policy.of_regulation Policy.Sec17a4 in
  let tenants = [| "tenant-a"; "tenant-b"; "tenant-c"; "tenant-d" |] in
  let rng = Drbg.create ~seed:(Printf.sprintf "perfbench|ingest|%d" args.seed) in
  let pool = make_pool rng in
  (* One round of writes. Sizes are the log-uniform law's 256 quantiles
     and exactly half the writes are sealed, so every seed writes the same
     multiset of (size, sealed); the seed picks the order, the tenants and
     the contents. Runs write whole rounds. *)
  let k = ingest_round in
  let sizes =
    shuffle rng (Array.init k (fun j -> int_of_float (1024. *. (2. ** (6. *. (float_of_int j +. 0.5) /. float_of_int k)))))
  in
  let tenant = shuffle rng (Array.init k (fun j -> if j mod 2 = 0 then "" else tenants.(j / 2 mod Array.length tenants))) in
  let offs = Array.init k (fun _ -> below rng pool_bytes) in
  let env, setup_s =
    run_setup args (fun ~final:_ ->
        let env = build_env Worm.default_config in
        (* The warm-up write leaves the served bound one write stale, so
           each timed write heals exactly its predecessor's. *)
        (match wire_write env ~policy ~tenant:"" ~blocks:(blocks_of pool ~off:0 ~len:4096) with
        | Some _ -> ()
        | None -> fatal "warm-up write failed");
        env)
  in
  let writes = series () and reads = series () in
  let acked = ref [] in
  Span.set_phase "timed";
  let timed_ns, loop_kernel_ns =
    timed_rounds ~seconds:args.seconds (fun () ->
        acked :=
          Array.init k (fun j ->
              let blocks = blocks_of pool ~off:offs.(j) ~len:sizes.(j) in
              timed writes (fun () -> wire_write env ~policy ~tenant:tenant.(j) ~blocks))
          :: !acked)
  in
  (* Read back every acknowledged write: valid, byte-identical. *)
  Span.set_phase "readback";
  List.iter
    (Array.iteri (fun j -> function
       | None -> ()
       | Some sn -> timed reads (fun () -> checked_read env sn (Live (Some (String.sub pool offs.(j) sizes.(j)))))))
    (List.rev !acked);
  let audit = audits env in
  Span.set_phase "maint";
  maint_ns := 0;
  idle_pass env nothing_expires;
  let n = List.length !acked in
  let live = ref 4096 in
  List.iter (Array.iteri (fun j sn -> if sn <> None then live := !live + sizes.(j))) !acked;
  { setup_s; ops = n * k; timed_ns; ops_per_s = (rate writes.norm, rate writes.wall); writes; reads; extra = []; late = Stats.create ();
    audit; maintenance_ns = !maint_ns; maintained_writes = n * k; live_bytes = !live; env; write_phases = [ "timed" ];
    write_roots = (fun s -> s.Span.phase = "timed" && s.Span.name = "req.write"); read_phases = [ "readback" ];
    loop_phases = [ "timed" ]; loop_kernel_ns; deferred_peak = 0;
    calib_sns = List.filter_map Fun.id (Array.to_list (List.hd !acked)) |> List.filteri (fun i _ -> i < 50) }

(* ---------- audit ---------- *)

let audit_records = 1100
let audit_reads = 4096

(* Which serials expire: a prefix that advances the base bound, then
   scattered singletons and pairs (per-SN deletion proofs, more of them
   than the client's 256-entry verify memo holds) and runs of 3-5 that
   compaction collapses into deletion windows, separated by live runs. *)
let expiry_plan rng n =
  let expired = Array.make (n + 1) false in
  let prefix = n / 50 in
  for sn = 1 to prefix do
    expired.(sn) <- true
  done;
  let sn = ref (prefix + 3) in
  while !sn <= n do
    let r = below rng 100 in
    let run = if r < 80 then 1 else if r < 92 then 2 else 3 + below rng 3 in
    for k = !sn to min n (!sn + run - 1) do
      expired.(k) <- true
    done;
    sn := !sn + run + 2 + below rng 2
  done;
  expired

let audit args =
  let long = Policy.of_regulation Policy.Sec17a4 in
  let short = Policy.custom ~name:"short" ~retention_ns:(Clock.ns_of_sec 1.) ~shred_passes:1 in
  let seed_label = Printf.sprintf "perfbench|audit|%d" args.seed in
  let plan = expiry_plan (Drbg.create ~seed:(seed_label ^ "|plan")) audit_records in
  let n_expired = Array.fold_left (fun acc e -> if e then acc + 1 else acc) 0 plan in
  (* Every set-up repeats the same preload; the workload's write
     latencies are those of the preload writes. *)
  let writes = series () in
  let maintenance = ref [] in
  (* Exactly the planned records expire, all in the post-preload pass. *)
  let planned ~now:_ results =
    let ok = List.filter (fun (_, r) -> Result.is_ok r) results in
    List.iter
      (fun (sn, _) -> if not plan.(Serial.to_int sn) then failure "unplanned expiry of %s" (Serial.to_string sn))
      ok;
    if List.length ok <> n_expired then failure "expired %d records, planned %d" (List.length ok) n_expired;
    List.length ok
  in
  let env, setup_s =
    run_setup args (fun ~final:_ ->
        let env = build_env Worm.default_config in
        let rng = Drbg.create ~seed:(seed_label ^ "|preload") in
        let pool = make_pool rng in
        let write sn ~blocks =
          let policy = if plan.(sn) then short else long in
          match wire_write env ~policy ~tenant:"" ~blocks with
          | Some got when Serial.to_int got = sn -> ()
          | Some got -> fatal "preload write %d got serial %s" sn (Serial.to_string got)
          | None -> fatal "preload write %d failed" sn
        in
        let blocks () = blocks_of pool ~off:(below rng pool_bytes) ~len:4096 in
        (* The first write is a warm-up: nothing before it made the bound stale. *)
        Span.set_phase "warmup";
        write 1 ~blocks:(blocks ());
        Span.set_phase "setup";
        for sn = 2 to audit_records do
          let blocks = blocks () in
          timed writes (fun () -> write sn ~blocks)
        done;
        Clock.advance env.clock (Clock.ns_of_sec 2.);
        idle_pass env planned;
        maintenance := float_of_int !maint_ns :: !maintenance;
        env)
  in
  let live_bytes = 4096 * (audit_records - n_expired) in
  let m = Worm.metrics env.store in
  Printf.printf "# audit store: %d records, %d live, %d per-SN deletion proofs, %d windows, base %s\n"
    audit_records m.Worm.m_active m.Worm.m_deleted_entries m.Worm.m_windows (Serial.to_string m.Worm.m_sn_base);
  (* Reads uniform over the whole serial range and beyond, drawn before
   the timed loop, which cycles through them. *)
  let rng = Drbg.create ~seed:(seed_label ^ "|reads") in
  let span_sns = audit_records + (audit_records / 20) in
  let targets = Array.init audit_reads (fun _ -> 1 + below rng span_sns) in
  let reads = series () and next = ref 0 in
  Span.set_phase "timed";
  let timed_ns, loop_kernel_ns =
    timed_rounds ~seconds:args.seconds (fun () ->
        for _ = 1 to 256 do
          let sn = targets.(!next mod audit_reads) in
          incr next;
          let expect = if sn > audit_records then Absent else if plan.(sn) then Gone else Live None in
          timed reads (fun () -> checked_read env (Serial.of_int sn) expect)
        done)
  in
  let audit = audits env in
  { setup_s; ops = Stats.count reads.norm; timed_ns; ops_per_s = (rate reads.norm, rate reads.wall); writes; reads; extra = [];
    late = Stats.create (); audit; maintenance_ns = int_of_float (Stats.median_list !maintenance);
    maintained_writes = audit_records; live_bytes; env; write_phases = [ "setup" ];
    write_roots = (fun s -> s.Span.phase = "setup" && s.Span.name = "req.write"); read_phases = [ "timed" ];
    loop_phases = [ "timed" ]; loop_kernel_ns; deferred_peak = 0;
    calib_sns = List.init 50 (fun j -> Serial.of_int targets.(j)) }

(* ---------- burst_day ---------- *)

type event = Write | Read | End_burst | End_idle

let cycle_ns = 1_000_000_000
let burst_ns = cycle_ns / 5
let burst_write_rate = 200.
let idle_read_rate = 100.
let recent = 100
let burst_record = 1024

(* The retention monitor as the benchmark expects it to behave, worked
   out from the schedule alone: each record's expiry is the virtual time
   of its write plus the retention the schedule gave it. A pass at
   virtual time [now] must delete every queued record with
   [expiry < now] and must not touch one with [expiry > now]. A record
   expiring at exactly [now] may be deleted, refused (it then waits in
   the store's backlog until [refeed_vexp]) or left queued. *)
module Due = Set.Make (struct
  type t = int64 * int

  let compare = compare
end)

type retention_model = {
  mutable queue : Due.t;
  mutable backlog : Due.t;
  gone : (int, unit) Hashtbl.t;  (** records that must read as deleted *)
}

let retention_model () = { queue = Due.empty; backlog = Due.empty; gone = Hashtbl.create 1024 }
let model_write m sn ~now ~retention_ns = m.queue <- Due.add (Int64.add now retention_ns, Serial.to_int sn) m.queue

(* One pass, checked against the store's; returns how many records it
   deleted. *)
let model_pass m ~now results =
  let expired, rest = Due.partition (fun (e, _) -> Int64.compare e now < 0) m.queue in
  m.queue <- rest;
  let owed = Hashtbl.create 16 and at_now = Hashtbl.create 4 in
  Due.iter (fun (_, sn) -> Hashtbl.replace owed sn ()) expired;
  Due.iter (fun ((e, sn) as x) -> if Int64.equal e now then Hashtbl.replace at_now sn x) rest;
  let deleted = ref 0 in
  let gone k =
    Hashtbl.replace m.gone k ();
    incr deleted
  in
  List.iter
    (fun (sn, r) ->
      let k = Serial.to_int sn in
      match (r, Hashtbl.find_opt at_now k) with
      | Ok (), Some x ->
          m.queue <- Due.remove x m.queue;
          gone k
      | Ok (), None when Hashtbl.mem owed k ->
          Hashtbl.remove owed k;
          gone k
      | Ok (), None -> failure "%s deleted inside its retention" (Serial.to_string sn)
      | Error (Firmware.Not_expired _), Some x ->
          m.queue <- Due.remove x m.queue;
          m.backlog <- Due.add x m.backlog
      | Error (Firmware.Not_expired _), None when Hashtbl.mem owed k ->
          failure "%s refused for deletion past its retention" (Serial.to_string sn)
      | Error (Firmware.Not_expired _), None -> failure "%s handed over before its expiry" (Serial.to_string sn)
      | Error _, _ -> ())
    results;
  Hashtbl.iter (fun k () -> failure "sn:%d kept past its retention" k) owed;
  !deleted

let model_refeed m =
  m.queue <- Due.union m.queue m.backlog;
  m.backlog <- Due.empty

let burst_day args =
  let seed_label = Printf.sprintf "perfbench|burst_day|%d" args.seed in
  let config = { Worm.default_config with default_witness = Firmware.Weak_deferred; datasig_mode = Worm.Host_hash } in
  (* Three records in four have short retentions spread over 1-3 s, so
     expiries trickle into every idle period and reads of recent records
     meet deletion proofs; the fourth is kept for years, so the store the
     end-of-run audits walk is not empty. Retention belongs to the
     schedule, not to the seed: write [k] of every cycle (and of the
     preload) gets the same one, so every seed expires the same records at
     the same points and maintenance does the same work. *)
  let policy k =
    let retention_ns =
      if k mod 4 = 3 then (Policy.of_regulation Policy.Sec17a4).Policy.retention_ns
      else Clock.ns_of_sec (1. +. (2. *. float_of_int (k * 7 mod 30) /. 30.))
    in
    Policy.custom ~name:"burst" ~retention_ns ~shred_passes:1
  in
  let pool = make_pool (Drbg.create ~seed:(seed_label ^ "|pool")) in
  let ring = Array.make recent Serial.zero and ring_n = ref 0 in
  let remember sn =
    ring.(!ring_n mod recent) <- sn;
    incr ring_n
  in
  let model = ref (retention_model ()) in
  let write env k ~blocks =
    let now = Clock.now env.clock in
    let r = wire_write env ~policy:(policy k) ~tenant:"" ~blocks in
    Option.iter
      (fun sn ->
        remember sn;
        model_write !model sn ~now ~retention_ns:(policy k).Policy.retention_ns)
      r;
    r
  in
  let env, setup_s =
    run_setup args (fun ~final:_ ->
        let env = build_env config in
        let rng = Drbg.create ~seed:(seed_label ^ "|preload") in
        ring_n := 0;
        model := retention_model ();
        for k = 0 to recent - 1 do
          if write env k ~blocks:(blocks_of pool ~off:(below rng pool_bytes) ~len:burst_record) = None then
            fatal "preload write failed";
          ignore (Speed.tick ())
        done;
        strengthen env ~max:max_int;
        ignore (Speed.tick ());
        ignore (run_audits env ~max:max_int);
        refresh env;
        env)
  in
  let model = !model in
  let written = ref recent in
  (* One cycle's schedule, replayed every cycle: a burst of writes at a
     fixed rate, each followed 1 ms later by a read, then reads at a fixed
     rate through the idle part. The read right behind each write leaves
     the rest of the period free, so a slow refresh in that read does not
     make the next write late. The seed draws what each event reads or
     writes. *)
  let rng = Drbg.create ~seed:(seed_label ^ "|schedule") in
  let at rate x = int_of_float (x /. rate *. 1e9) in
  let n_burst = int_of_float (float_of_int burst_ns /. 1e9 *. burst_write_rate) in
  let n_idle = int_of_float (float_of_int (cycle_ns - burst_ns) /. 1e9 *. idle_read_rate) in
  let schedule =
    Array.of_list
      (List.concat_map
         (fun k -> [ (at burst_write_rate (float_of_int k +. 0.25), Write); (at burst_write_rate (float_of_int k +. 0.45), Read) ])
         (List.init n_burst Fun.id)
      @ [ (burst_ns, End_burst) ]
      @ List.init n_idle (fun k -> (burst_ns + at idle_read_rate (float_of_int k +. 0.5), Read))
      @ [ (cycle_ns, End_idle) ])
  in
  let draws = Array.map (fun _ -> (below rng recent, below rng pool_bytes)) schedule in
  let cycles = max 2 (args.seconds * 1_000_000_000 / cycle_ns) in
  (* Read latencies are those of the idle part, where maintenance slices
     can delay them. A burst read pays the bound refresh of the write
     before it, which [server.refresh_us_per_write] reports; its latency
     is printed apart. The first cycle warms up and is not counted. *)
  let writes = series () and idle_reads = series () and burst_reads = series () in
  let late = Stats.create () in
  let ops = ref 0 and n_writes = ref 0 and peak = ref 0 in
  let idle = ref false and heartbeat_due = ref false and audits_left = ref false and refeed_due = ref false in
  let compact_due = ref false in
  (* One small slice of idle-period work, or [false] when none is left. *)
  let slice () =
    let rm_due () =
      match Worm.next_rm_wakeup env.store with Some t -> Int64.compare t (Clock.now env.clock) <= 0 | None -> false
    in
    if !heartbeat_due then begin
      heartbeat_due := false;
      maint "worm.heartbeat" (fun () -> Worm.heartbeat env.store);
      true
    end
    (* Expiry first, as soon as records fall due, so deletions stay small
       and no deferred work is spent on records about to be shredded. *)
    else if rm_due () then begin
      if expire env (model_pass model) > 0 then compact_due := true;
      true
    end
    else if !compact_due then begin
      compact_due := false;
      compact env;
      true
    end
    else if Worm.deferred_length env.store > 0 then begin
      strengthen env ~max:2;
      true
    end
    else if !audits_left then begin
      if run_audits env ~max:16 < 16 then audits_left := false;
      true
    end
    else if !refeed_due then begin
      refeed_due := false;
      ignore (maint "worm.refeed_vexp" (fun () -> Worm.refeed_vexp env.store));
      model_refeed model;
      true
    end
    else false
  in
  (* The schedule runs on the normalised clock, so the offered load is the
     same on a slow host as on a fast one relative to the work it serves.
     The generator busy-waits rather than sleeps, running the speed
     kernel: a sleeping process lets the virtual CPU be descheduled, and
     the requests after each wake-up then run measurably slower by an
     amount set by the host, not by the program. *)
  let vbase = Clock.now env.clock in
  maint_ns := 0;
  Span.set_phase "burst";
  let t_start = now_ns () and k_start = !Speed.spent and n_start = Speed.tick () in
  let elapsed () = Speed.now () -. n_start in
  (* Kernel runs while one fits before the due time, then polling. *)
  let wait_until due =
    while elapsed () < due do
      if due -. elapsed () > 2. *. Speed.reference_ns then ignore (Speed.tick ~waiting:true ()) else Domain.cpu_relax ()
    done
  in
  for c = 0 to cycles - 1 do
    let base = c * cycle_ns and nw = ref 0 in
    let counted s = if c > 0 then Some s else None in
    Array.iteri
      (fun i (offset, kind) ->
        let due = base + offset in
        let due_n = float_of_int due in
        let rec wait () =
          if elapsed () < due_n then begin
            if !idle && slice () then ignore (Speed.tick ()) else wait_until due_n;
            wait ()
          end
        in
        wait ();
        let late_us = (elapsed () -. due_n) /. 1e3 in
        let slot, off = draws.(i) in
        Clock.advance_to env.clock (Int64.add vbase (Int64.of_int due));
        (* Latency from the due time. *)
        let record s =
          let t_done = now_ns () in
          let n = Speed.tick () in
          Option.iter
            (fun s ->
              Stats.add s.norm ((n -. n_start -. due_n) /. 1e3);
              Stats.add s.wall (us (t_done - Speed.wall_of (n_start +. due_n))))
            s
        in
        match kind with
        | Write ->
            Stats.add late late_us;
            let r = write env !nw ~blocks:(blocks_of pool ~off ~len:burst_record) in
            record (counted writes);
            incr nw;
            incr ops;
            incr n_writes;
            peak := max !peak (Worm.deferred_length env.store);
            if r <> None then incr written
        | Read ->
            Stats.add late late_us;
            let sn = ring.((!ring_n - 1 - slot) mod recent) in
            checked_read env sn (if Hashtbl.mem model.gone (Serial.to_int sn) then Gone else Live None);
            record (counted (if offset < burst_ns then burst_reads else idle_reads));
            incr ops
        | End_burst ->
            (* Heal the last write's stale bound inside the burst, so the
               burst pays for exactly the signatures its writes cause. *)
            Span.root "server.refresh" (fun () -> Server.refresh env.server);
            Span.set_phase "idle";
            idle := true;
            heartbeat_due := true;
            audits_left := true;
            refeed_due := true
        | End_idle ->
            incr attempted;
            let debt = Worm.deferred_length env.store in
            if debt <> 0 then failure "idle period ended with %d deferred witnesses" debt;
            refresh env;
            Span.set_phase "burst";
            idle := false)
      schedule
  done;
  let timed_ns = now_ns () - t_start and timed_n = elapsed () and loop_kernel_ns = !Speed.spent - k_start in
  let maintenance_ns = !maint_ns in
  let audit = audits env in
  let live_bytes = (!written - Hashtbl.length model.gone) * burst_record in
  { setup_s; ops = !ops; timed_ns; ops_per_s = (float_of_int !ops /. (timed_n /. 1e9), float_of_int !ops /. sec timed_ns); writes; reads = idle_reads;
    extra = [ ("burst_read_p50_us", Stats.quantile burst_reads.norm 0.5, "us") ]; late; audit; maintenance_ns;
    maintained_writes = !n_writes; live_bytes; env; write_phases = [ "burst" ]; write_roots = (fun s -> s.Span.phase = "burst");
    read_phases = [ "burst"; "idle" ]; loop_phases = [ "burst"; "idle" ]; loop_kernel_ns; deferred_peak = !peak;
    calib_sns = List.init 50 (fun k -> ring.((!ring_n - 1 - k) mod recent)) }

(* ---------- calibration (traced run) ---------- *)

type calibration = {
  rsa1024_sign_us : float;
  rsa512_sign_us : float;
  rsa1024_verify_us : float;
  sha256_mb_per_s : float;
  aes_ctr_mb_per_s : float;
  disk_wall_us : float;
  disk_virtual_us : float;
  overhead_frac : float;
}

let time_ns f =
  let t0 = now_ns () in
  f ();
  now_ns () - t0

(* The last crypto samples; the disk model's wall cost beside its
   virtual charge on the same payloads; and the tracer's own cost on
   reads representative of the workload. *)
let calibrate r =
  let env = r.env in
  sample_crypto env;
  Span.set_phase "calib";
  let payloads = (Option.get !crypto_inputs).payloads in
  let disk = Disk.create () in
  let disk_wall =
    time_ns (fun () ->
        List.iter
          (fun p ->
            let a = Disk.write disk p in
            ignore (Disk.read disk a);
            ignore (Disk.shred disk ~passes:1 a))
          payloads)
  in
  (* Tracer overhead: the same reads, alternately untraced and traced;
     adjacent pairs see the same machine state. *)
  let pass traced () =
    Span.enable traced;
    List.iter
      (fun sn ->
        ignore
          (Span.root "req.read" (fun () ->
               match exchange env "calib" (Message.Read sn) with
               | Ok (Message.Read_reply { response; _ }) -> Client.verify_read env.client ~sn response
               | _ -> fatal "calibration read failed")))
      r.calib_sns
  in
  pass false ();
  let pairs =
    List.init 21 (fun _ ->
        let plain = time_ns (pass false) in
        (float_of_int (time_ns (pass true)) /. float_of_int plain) -. 1.)
  in
  Span.enable true;
  { rsa1024_sign_us = crypto "crypto.rsa1024_sign"; rsa512_sign_us = crypto "crypto.rsa512_sign";
    rsa1024_verify_us = crypto "crypto.rsa1024_verify"; sha256_mb_per_s = crypto "crypto.sha256";
    aes_ctr_mb_per_s = crypto "crypto.aes_ctr"; disk_wall_us = us disk_wall;
    disk_virtual_us = us (Int64.to_int (Disk.busy_ns disk)); overhead_frac = Stats.median_list pairs }

(* Reads are pure, so the traced transport must serve the very bytes
   [Server.handle_bytes] serves. *)
let transport_parity env =
  incr attempted;
  let top = Firmware.sn_current (Worm.firmware env.store) in
  List.iter
    (fun sn ->
      let req = Message.encode_request (Message.Read sn) in
      Server.refresh env.server;
      let plain = Server.handle_bytes env.server req in
      let traced = Span.run "calib.parity" (fun () -> traced_handle_bytes env.server req) in
      if not (String.equal plain traced) then failure "traced transport served different bytes for %s" (Serial.to_string sn))
    [ Serial.first; top; Serial.next top ]

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

let per_s serials ns = float_of_int serials /. (ns /. 1e9)

(* The end-to-end metrics, normalised; [wall] gives the plain wall-clock
   figures printed beside them. *)
let end_to_end ?(wall = false) r =
  let pick s = if wall then s.wall else s.norm in
  let q s p = Stats.quantile (pick s) p in
  [ m "setup_s" (if wall then snd r.setup_s else fst r.setup_s) "s";
    m "ops_per_s" (if wall then snd r.ops_per_s else fst r.ops_per_s) "ops/s";
    m "write_p50_us" (q r.writes 0.5) "us";
    m "write_p99_us" (q r.writes 0.99) "us";
    m "read_p50_us" (q r.reads 0.5) "us";
    m "read_p99_us" (q r.reads 0.99) "us";
    m "sweep_serials_per_s" (per_s r.audit.serials (if wall then r.audit.sweep_wall_ns else r.audit.sweep_ns)) "serials/s";
    m "scrub_serials_per_s" (per_s r.audit.serials (if wall then r.audit.scrub_wall_ns else r.audit.scrub_ns)) "serials/s";
    m "storage_bytes_per_user_byte" (storage_ratio r) "ratio" ]

let per_layer r cal =
  let spans = List.filter (fun s -> s.Span.phase <> "calib") (Span.spans ()) in
  let by_req = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.add by_req s.Span.req s) spans;
  let roots p = List.filter (fun s -> s.Span.parent = 0 && p s) spans in
  let named name l = List.filter (fun s -> s.Span.name = name) l in
  (* every span of the given roots' requests with this name *)
  let within rs name = List.concat_map (fun root -> named name (Hashtbl.find_all by_req root.Span.req)) rs in
  let dur s = s.Span.t1 - s.Span.t0 in
  let sum f l = List.fold_left (fun acc s -> acc + f s) 0 l in
  let total c l = float_of_int (sum (fun s -> Span.total s c) l) in
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  let mean_us l = per (List.length l) (us (sum dur l)) in
  let hit_ratio hit miss l = ratio (total hit l) (total hit l +. total miss l) in
  let in_phases phases s = List.mem s.Span.phase phases in
  let io_per phases kind =
    let n, b =
      List.fold_left
        (fun (n, b) p ->
          let n', b' = Option.value (Hashtbl.find_opt io (p ^ "/" ^ kind)) ~default:(0, 0) in
          (n + n', b + b'))
        (0, 0) phases
    in
    per n (float_of_int b)
  in
  let all_units name = Hashtbl.fold (fun k v acc -> if Filename.basename k = name then acc + v else acc) units 0 in
  (* Write accounting: the roots that carry the workload's writes and the
     signatures they cause (on burst_day, every request of the burst). *)
  let wscope = roots r.write_roots in
  let wreqs = named "req.write" wscope in
  let nw = List.length wreqs in
  let refreshes = within wscope "server.refresh" in
  let plain = within wreqs "server.handle_write_plain" and sealed = within wreqs "server.handle_write_sealed" in
  let sealed_bytes = get_units r.write_phases "sealed_bytes" in
  let user_bytes = get_units r.write_phases "plain_bytes" + sealed_bytes in
  (* Read accounting. *)
  let rreqs = roots (fun s -> in_phases r.read_phases s && s.Span.name = "req.read") in
  let codec_reqs = wreqs @ rreqs in
  let codec_ns =
    sum
      (fun root -> sum (fun s -> if Span.layer_of s.Span.name = "proto" then s.Span.self_ns else 0) (Hashtbl.find_all by_req root.Span.req))
      codec_reqs
  in
  let maint name = roots (fun s -> s.Span.name = name) in
  let expiries = maint "worm.expire_due" in
  let read_side = rreqs @ maint "remote.run_remote_audit" @ maint "scrubber.run_pass" in
  (* Reconciliation: calibrated crypto cost of the SCPU's work against
     its virtual charge, and the host's remaining wall time against
     [Worm.host_busy_ns]. *)
  let scpu_model l =
    ((total Span.c_strong l +. total Span.c_deletion l) *. cal.rsa1024_sign_us)
    +. (total Span.c_weak l *. cal.rsa512_sign_us)
    +. (total Span.c_hash_bytes l /. cal.sha256_mb_per_s)
  in
  let scpu_virtual l = us (int_of_float (total Span.c_scpu_ns l)) in
  let host_virtual l = us (int_of_float (total Span.c_host_ns l)) in
  let disk_virtual l = us (int_of_float (total Span.c_disk_ns l)) in
  let host_side = List.filter (fun s -> String.starts_with ~prefix:"server.handle_" s.Span.name) spans @ roots (fun s -> Span.layer_of s.Span.name = "worm") in
  let host_hashed = if (Worm.config r.env.store).Worm.datasig_mode = Worm.Host_hash then user_bytes else 0 in
  let write_model =
    scpu_model (plain @ sealed) +. (float_of_int sealed_bytes /. cal.aes_ctr_mb_per_s) +. (float_of_int host_hashed /. cal.sha256_mb_per_s)
  in
  let write_wall = us (sum dur (plain @ sealed)) in
  Printf.printf "# handle check over %d writes: wall %.1f us/write = crypto model %.1f + Worm/VRDT bookkeeping %.1f\n" nw
    (per nw write_wall) (per nw write_model) (per nw (write_wall -. write_model));
  List.iter
    (fun (name, l) ->
      let n = List.length l in
      if n > 0 then
        Printf.printf "# %-26s n=%-6d wall %9.1f  model %9.1f  scpu-virtual %9.1f  host-virtual %9.1f  disk-virtual %9.1f us/span\n" name n
          (mean_us l) (per n (scpu_model l)) (per n (scpu_virtual l)) (per n (host_virtual l)) (per n (disk_virtual l)))
    [ ("server.handle_write_plain", plain); ("server.handle_write_sealed", sealed);
      ("server.handle_read", within rreqs "server.handle_read"); ("worm.strengthen_pending", maint "worm.strengthen_pending");
      ("worm.run_audits", maint "worm.run_audits"); ("worm.expire_due", expiries);
      ("worm.compact_windows", maint "worm.compact_windows"); ("worm.heartbeat", maint "worm.heartbeat") ];
  if sealed <> [] then print_endline "# known: tenant-sealed writes are billed at the SHA rate, not the AES rate (Worm apply_cipher)";
  let recon layer wall virt =
    let k = ratio wall virt in
    Printf.printf "# reconcile %-4s wall %12.1f us  virtual %12.1f us  wall/virtual %8.3f%s\n" layer wall virt k
      (if k > 2. || k < 0.5 then "  DISAGREE >2x" else "");
    k
  in
  let scpu_ratio = recon "scpu" (scpu_model host_side) (scpu_virtual host_side) in
  let worm_ratio = recon "worm" (us (sum dur host_side) -. scpu_model host_side) (host_virtual host_side) in
  let disk_ratio = recon "disk" cal.disk_wall_us cal.disk_virtual_us in
  let loop_roots = roots (in_phases r.loop_phases) in
  let m_end = Worm.metrics r.env.store in
  [ m "proto.codec_us_per_req" (per (List.length codec_reqs) (us codec_ns)) "us";
    m "proto.bytes_per_write" (io_per r.write_phases "write") "bytes";
    m "proto.bytes_per_read" (io_per r.read_phases "read") "bytes";
    m "server.refresh_us_per_write" (per nw (us (sum dur refreshes))) "us";
    m "server.refresh_signs_per_write" (per nw (total Span.c_strong refreshes)) "count";
    m "server.handle_write_plain_us" (mean_us plain) "us";
    m "server.handle_write_sealed_us" (mean_us sealed) "us";
    m "server.handle_read_us" (mean_us (within rreqs "server.handle_read")) "us";
    m "server.memo_hit_ratio" (hit_ratio Span.c_memo_hits Span.c_memo_misses rreqs) "ratio";
    m "worm.heartbeat_us" (mean_us (maint "worm.heartbeat")) "us";
    m "worm.strengthen_us_per_record" (per (all_units "strengthened") (us (sum dur (maint "worm.strengthen_pending")))) "us";
    m "worm.run_audits_us_per_record" (per (all_units "audited") (us (sum dur (maint "worm.run_audits")))) "us";
    m "worm.expire_us_per_record" (per (all_units "expired") (us (sum dur expiries))) "us";
    m "worm.compact_us" (mean_us (maint "worm.compact_windows")) "us";
    m "worm.deferred_peak" (float_of_int r.deferred_peak) "count";
    m "worm.vrdt_bytes_per_live_record" (per m_end.Worm.m_active (float_of_int m_end.Worm.m_vrdt_bytes)) "bytes";
    m "worm.bookkeeping_us_per_write" (per nw (write_wall -. write_model)) "us";
    m "worm.wall_over_virtual" worm_ratio "ratio";
    m "scpu.strong_signs_per_write" (per nw (total Span.c_strong wscope)) "count";
    m "scpu.weak_signs_per_write" (per nw (total Span.c_weak wscope)) "count";
    m "scpu.sign_calls_per_write" (per nw (total Span.c_sign_calls wscope)) "count";
    m "worm.expiry_refusals" (float_of_int !expiry_refusals) "count";
    m "scpu.deletion_signs_per_expiry" (per (all_units "expired") (total Span.c_deletion expiries)) "count";
    m "scpu.hash_bytes_per_user_byte" (per user_bytes (total Span.c_hash_bytes wreqs)) "ratio";
    m "scpu.virtual_us_per_write" (per nw (scpu_virtual wscope)) "us";
    m "scpu.read_side_signs" (total Span.c_strong read_side +. total Span.c_weak read_side +. total Span.c_deletion read_side) "count";
    m "scpu.wall_over_virtual" scpu_ratio "ratio";
    m "crypto.rsa1024_sign_us" cal.rsa1024_sign_us "us";
    m "crypto.rsa512_sign_us" cal.rsa512_sign_us "us";
    m "crypto.rsa1024_verify_us" cal.rsa1024_verify_us "us";
    m "crypto.sha256_mb_per_s" cal.sha256_mb_per_s "MB/s";
    m "crypto.aes_ctr_mb_per_s" cal.aes_ctr_mb_per_s "MB/s";
    m "client.verify_live_us" (mean_us (within rreqs "client.verify_live")) "us";
    m "client.verify_deleted_us" (mean_us (within rreqs "client.verify_deleted")) "us";
    m "client.verify_window_us" (mean_us (within rreqs "client.verify_window")) "us";
    m "client.verify_absent_us" (mean_us (within rreqs "client.verify_absent")) "us";
    m "client.verify_cache_hit_ratio" (hit_ratio Span.c_vc_hits Span.c_vc_misses rreqs) "ratio";
    m "remote.round_trips_per_kserial" (per r.audit.serials (1000. *. float_of_int r.audit.round_trips)) "count";
    m "remote.retries" (float_of_int r.audit.retries) "count";
    m "scrubber.us_per_serial" (per r.audit.serials (r.audit.scrub_wall_ns /. 1e3)) "us";
    m "scrubber.findings" (float_of_int r.audit.findings) "count";
    m "disk.bytes_per_user_byte" (ratio (float_of_int m_end.Worm.m_disk_bytes) (float_of_int r.live_bytes)) "ratio";
    m "disk.virtual_us_per_write" (per nw (disk_virtual wscope)) "us";
    m "disk.wall_over_virtual" disk_ratio "ratio";
    m "trace.unattributed_frac"
      (ratio (float_of_int (r.timed_ns - r.loop_kernel_ns - sum dur loop_roots)) (float_of_int r.timed_ns))
      "ratio";
    m "trace.overhead_frac" cal.overhead_frac "ratio";
    m "loadgen.late_p99_us" (Stats.quantile r.late 0.99) "us" ]

(* ---------- output ---------- *)

let json_metrics l =
  String.concat ", "
    (List.map (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (Printf.sprintf "%.17g" x.value) x.unit_) l)

let () =
  let args = parse_args () in
  Span.enable false;
  if args.trace then begin
    let rng = Drbg.create ~seed:(Printf.sprintf "perfbench|calib|%s|%d" args.workload args.seed) in
    let size rng = match args.workload with "ingest" -> log_uniform_size rng | "audit" -> 4096 | _ -> burst_record in
    crypto_inputs := Some (make_crypto_inputs rng ~size)
  end;
  let r =
    match args.workload with
    | "ingest" -> ingest args
    | "audit" -> audit args
    | _ -> burst_day args
  in
  let metrics =
    if not args.trace then end_to_end r
    else begin
      transport_parity r.env;
      per_layer r (calibrate r)
    end
  in
  (* A metric that is not a number measured nothing. *)
  let metrics =
    List.map
      (fun x ->
        if Float.is_finite x.value then x
        else begin
          failure "metric %s is %f" x.name x.value;
          { x with value = 0. }
        end)
      metrics
  in
  Printf.printf "# workload %s seed %d: %d ops in %.2f s; failed %d of %d (failed_frac %g)\n" args.workload args.seed
    r.ops (sec r.timed_ns) !failed !attempted (ratio (float_of_int !failed) (float_of_int !attempted));
  List.iter (fun x -> Printf.printf "# %-34s %14.4f %s\n" x.name x.value x.unit_) metrics;
  (* Printed, not in the JSON: on ingest nothing is owed, so the number is
     a single heartbeat per thousands of writes and only noise can move it. *)
  if not args.trace then begin
    List.iter
      (fun x -> Printf.printf "# %-34s %14.4f %s (plain wall clock, not gated)\n" ("wall." ^ x.name) x.value x.unit_)
      (end_to_end ~wall:true r);
    Printf.printf "# %-34s %14.4f us (idle-period work per write, not gated)\n" "maintenance_us_per_write"
      (us r.maintenance_ns /. float_of_int r.maintained_writes);
    List.iter (fun (name, v, unit_) -> Printf.printf "# %-34s %14.4f %s (not gated)\n" name v unit_) r.extra;
    Printf.printf "# %-34s %14d count (deletions refused at the exact expiry instant)\n" "expiry_refusals" !expiry_refusals
  end;
  Printf.printf "# latencies over %d writes and %d reads\n" (Stats.count r.writes.norm) (Stats.count r.reads.norm);
  Option.iter Span.write_tsv args.trace_out;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (!failed = 0) !attempted !failed
    (json_metrics metrics)

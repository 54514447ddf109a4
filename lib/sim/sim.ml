module Device = Worm_scpu.Device
module Cost_model = Worm_scpu.Cost_model
module Clock = Worm_simclock.Clock
module Disk = Worm_simdisk.Disk
module Drbg = Worm_crypto.Drbg
module Rsa = Worm_crypto.Rsa
open Worm_core

type mode = { label : string; witness : Firmware.witness_mode; datasig : Worm.datasig_mode }

let mode_strong_scpu_hash = { label = "strong-1024/scpu-hash"; witness = Firmware.Strong_now; datasig = Worm.Scpu_hashes }
let mode_strong_host_hash = { label = "strong-1024/host-hash"; witness = Firmware.Strong_now; datasig = Worm.Host_hash }
let mode_weak_scpu_hash = { label = "deferred-512/scpu-hash"; witness = Firmware.Weak_deferred; datasig = Worm.Scpu_hashes }
let mode_weak_host_hash = { label = "deferred-512/host-hash"; witness = Firmware.Weak_deferred; datasig = Worm.Host_hash }
let mode_mac_host_hash = { label = "hmac/host-hash"; witness = Firmware.Mac_deferred; datasig = Worm.Host_hash }

let all_modes =
  [ mode_strong_scpu_hash; mode_strong_host_hash; mode_weak_scpu_hash; mode_weak_host_hash; mode_mac_host_hash ]

type measurement = {
  label : string;
  record_bytes : int;
  records : int;
  scpu_s : float;
  host_s : float;
  disk_s : float;
  throughput_rps : float;
  bottleneck : string;
  idle_scpu_s : float;
  deferred_after_idle : int;
}

type env = { ca : Rsa.secret; dev : Device.t; clk : Clock.t; rng : Drbg.t }

let make_env ?(profile = Cost_model.ibm_4764) ?(strong_bits = 1024) ?(weak_bits = 512) ~seed () =
  let rng = Drbg.create ~seed:("sim-env|" ^ seed) in
  let ca = Rsa.generate rng ~bits:1024 in
  let clk = Clock.create () in
  let config = { Device.default_config with strong_bits; weak_bits; profile } in
  let dev = Device.provision ~seed ~clock:clk ~ca ~config ~name:"sim-scpu" () in
  { ca; dev; clk; rng }

let device env = env.dev
let clock env = env.clk

let sec ns = Int64.to_float ns /. 1e9

let run_write_burst env ~mode ~record_bytes ~records ?(disk_latency = Disk.fast_latency) () =
  let disk = Disk.create ~latency:disk_latency () in
  let config =
    { Worm.default_config with datasig_mode = mode.datasig; default_witness = mode.witness }
  in
  let store = Worm.create ~config ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
  let policy = Policy.of_regulation Policy.Sec17a4 in
  let payloads = List.init records (fun _ -> Worm_workload.Workload.record env.rng ~bytes:record_bytes) in
  Device.reset_busy env.dev;
  Worm.reset_host_busy store;
  Disk.reset_busy disk;
  List.iter (fun blocks -> ignore (Worm.write store ~policy ~blocks)) payloads;
  let scpu_s = sec (Device.busy_ns env.dev) in
  let host_s = sec (Worm.host_busy_ns store) in
  let disk_s = sec (Disk.busy_ns disk) in
  (* Idle period: advance the clock a little and drain the deferred work
     well inside the weak constructs' security lifetime. *)
  Device.reset_busy env.dev;
  Clock.advance env.clk (Clock.ns_of_sec 1.);
  Worm.idle_tick store;
  let idle_scpu_s = sec (Device.busy_ns env.dev) in
  let deferred_after_idle = List.length (Worm.deferred_backlog store) in
  let slowest = max scpu_s (max host_s disk_s) in
  let bottleneck = if slowest = scpu_s then "scpu" else if slowest = host_s then "host" else "disk" in
  {
    label = mode.label;
    record_bytes;
    records;
    scpu_s;
    host_s;
    disk_s;
    throughput_rps = (if slowest <= 0. then infinity else float_of_int records /. slowest);
    bottleneck;
    idle_scpu_s;
    deferred_after_idle;
  }

let figure1 env ?(records = 24) () =
  List.concat_map
    (fun mode ->
      List.map
        (fun record_bytes -> run_write_burst env ~mode ~record_bytes ~records ())
        Worm_workload.Workload.figure1_sizes)
    all_modes

(* Figure 1 re-projected onto a profile calibrated from rates measured
   on the running host (Cost_model.of_measurements): what THIS machine
   would sustain as the SCPU, next to the paper's 2008 hardware. *)
let local_figure1 ~profile ?(records = 24) ?sizes ~seed () =
  let env = make_env ~profile ~seed () in
  let sizes = Option.value sizes ~default:Worm_workload.Workload.figure1_sizes in
  List.concat_map
    (fun mode -> List.map (fun record_bytes -> run_write_burst env ~mode ~record_bytes ~records ()) sizes)
    all_modes

(* The read-path counterpart of local_figure1: project verified-read
   throughput from this host's measured primitive rates. Reads never
   involve the SCPU (§4.1), so the whole budget is host-side public-key
   verification plus data hashing; the cached column amortizes the
   epoch-stable signatures (bounds, windows, deletion proofs) that the
   client's verify memo pays once per epoch instead of once per read.
   Per-record witnesses are never cached, so found-record rows don't
   move. *)
type read_row = {
  read_kind : string;
  read_record_bytes : int;
  sig_verifies : float;
  uncached_rps : float;
  cached_rps : float;
}

let read_projection ~verify_per_sec ~hash_bytes_per_sec ?sizes ?(epoch_reads = 1024) () =
  let sizes = Option.value sizes ~default:Worm_workload.Workload.figure1_sizes in
  let tv = 1. /. verify_per_sec in
  let row kind ~bytes ~sigs ~stable =
    let hash_s = float_of_int bytes /. hash_bytes_per_sec in
    let uncached_s = hash_s +. (sigs *. tv) in
    let cached_s =
      if stable then hash_s +. (sigs *. tv /. float_of_int (max 1 epoch_reads)) else uncached_s
    in
    {
      read_kind = kind;
      read_record_bytes = bytes;
      sig_verifies = sigs;
      uncached_rps = (if uncached_s <= 0. then infinity else 1. /. uncached_s);
      cached_rps = (if cached_s <= 0. then infinity else 1. /. cached_s);
    }
  in
  List.map
    (fun bytes ->
      (* metasig + datasig, both per-record and therefore uncacheable *)
      row (Printf.sprintf "found-%dKB" (bytes / 1024)) ~bytes ~sigs:2. ~stable:false)
    sizes
  @ [
      row "deleted" ~bytes:0 ~sigs:1. ~stable:true;
      row "deletion-window" ~bytes:0 ~sigs:2. ~stable:true;
      row "below-base" ~bytes:0 ~sigs:1. ~stable:true;
      row "above-current" ~bytes:0 ~sigs:1. ~stable:true;
    ]

let io_bottleneck env ?(records = 24) ~record_bytes () =
  let seeks_ms = [ 0.0; 0.5; 1.0; 2.0; 3.5; 5.0; 8.0 ] in
  List.map
    (fun seek_ms ->
      let disk_latency = { Disk.seek_ns = Clock.ns_of_ms seek_ms; bytes_per_sec = 100e6 } in
      (seek_ms, run_write_burst env ~mode:mode_strong_scpu_hash ~record_bytes ~records ~disk_latency ()))
    seeks_ms

type ablation_row = {
  n : int;
  window_scpu_us_per_update : float;
  merkle_scpu_us_per_update : float;
  merkle_hashes_per_update : float;
}

let window_vs_merkle env ~ns =
  List.map
    (fun n ->
      (* Window scheme: per-update SCPU cost is independent of store
         size, so a sample of inserts suffices. *)
      let sample = min n 64 in
      let disk = Disk.create ~latency:Disk.zero_latency () in
      let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
      let policy = Policy.of_regulation Policy.Sec17a4 in
      Device.reset_busy env.dev;
      for _ = 1 to sample do
        ignore (Worm.write store ~policy ~blocks:[ "x" ])
      done;
      let window_us = sec (Device.busy_ns env.dev) *. 1e6 /. float_of_int sample in
      (* Merkle baseline: populate to n (bulk, uncharged), then measure
         appends at size n. *)
      let mstore = Worm_baseline.Merkle_store.create ~device:env.dev ~capacity:(n + sample) in
      Worm_baseline.Merkle_store.bulk_load mstore (List.init n (fun _ -> "x"));
      Device.reset_busy env.dev;
      let hashes_before = (Device.stats env.dev).Device.hash_ops in
      for _ = 1 to sample do
        ignore (Worm_baseline.Merkle_store.append mstore "x")
      done;
      let merkle_us = sec (Device.busy_ns env.dev) *. 1e6 /. float_of_int sample in
      let hashes = (Device.stats env.dev).Device.hash_ops - hashes_before in
      {
        n;
        window_scpu_us_per_update = window_us;
        merkle_scpu_us_per_update = merkle_us;
        merkle_hashes_per_update = float_of_int hashes /. float_of_int sample;
      })
    ns

type read_mix_row = { write_fraction : float; ops_per_sec : float; scpu_us_per_op : float; mix_bottleneck : string }

let read_mix env ?(ops = 200) ~record_bytes () =
  let fractions = [ 0.0; 0.01; 0.1; 0.25; 0.5; 1.0 ] in
  List.map
    (fun write_fraction ->
      let disk = Disk.create ~latency:Disk.fast_latency () in
      let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
      let policy = Policy.of_regulation Policy.Sec17a4 in
      (* seed a few records so reads have targets *)
      let seeds =
        List.init 8 (fun _ -> Worm.write store ~policy ~blocks:(Worm_workload.Workload.record env.rng ~bytes:record_bytes))
      in
      let trace =
        Worm_workload.Workload.mixed_trace env.rng ~ops ~write_fraction ~record_bytes ~policy
      in
      Device.reset_busy env.dev;
      Worm.reset_host_busy store;
      Disk.reset_busy disk;
      List.iter
        (fun op ->
          match op with
          | Worm_workload.Workload.Write { blocks; policy } -> ignore (Worm.write store ~policy ~blocks)
          | Worm_workload.Workload.Read i -> ignore (Worm.read store (List.nth seeds (i mod List.length seeds))))
        trace;
      let scpu_s = sec (Device.busy_ns env.dev) in
      let host_s = sec (Worm.host_busy_ns store) in
      let disk_s = sec (Disk.busy_ns disk) in
      let slowest = max scpu_s (max host_s disk_s) in
      let mix_bottleneck = if slowest = scpu_s then "scpu" else if slowest = host_s then "host" else "disk" in
      {
        write_fraction;
        ops_per_sec = (if slowest <= 0. then infinity else float_of_int ops /. slowest);
        scpu_us_per_op = scpu_s /. float_of_int ops *. 1e6;
        mix_bottleneck;
      })
    fractions

type storage_row = { stage : string; vrdt_bytes : int; entries : int; windows : int }

let storage_reduction env ?(records = 400) ?(long_lived_every = 25) () =
  let disk = Disk.create ~latency:Disk.zero_latency () in
  let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
  let short = Policy.custom ~name:"short" ~retention_ns:(Clock.ns_of_sec 100.) ~shred_passes:1 in
  let long = Policy.custom ~name:"long" ~retention_ns:(Clock.ns_of_years 10.) ~shred_passes:1 in
  for i = 1 to records do
    let policy = if i mod long_lived_every = 0 then long else short in
    ignore (Worm.write store ~policy ~blocks:[ Printf.sprintf "record-%d" i ])
  done;
  let snap stage =
    {
      stage;
      vrdt_bytes = Worm.vrdt_bytes store;
      entries = Vrdt.entry_count (Worm.vrdt store);
      windows = List.length (Worm.deletion_windows store);
    }
  in
  let live = snap "all live" in
  Clock.advance env.clk (Clock.ns_of_sec 200.);
  (* drain in waves in case VEXP capacity shed some entries *)
  for _ = 1 to 4 do
    ignore (Worm.expire_due store);
    ignore (Worm.refeed_vexp store)
  done;
  let proofs = snap "expired, per-record proofs" in
  ignore (Worm.compact_windows store);
  let compacted = snap "windows collapsed" in
  [ live; proofs; compacted ]

type burst_row = { arrival_rps : float; max_burst_min : float; debt_per_sec : float }

let burst_sustainability ?(profile = Cost_model.ibm_4764) ?(strong_bits = 1024)
    ?(weak_lifetime_min = 120.) ?(rates = [ 100.; 424.; 848.; 1500.; 2096.; 4000. ]) () =
  let s = Cost_model.rsa_sign_per_sec profile ~bits:strong_bits in
  List.map
    (fun arrival_rps ->
      let debt_per_sec = 2. *. arrival_rps in
      let max_burst_min = weak_lifetime_min *. Float.min 1. (s /. debt_per_sec) in
      { arrival_rps; max_burst_min; debt_per_sec })
    rates

type day_phase = { label : string; rate_per_sec : float; duration_s : float }

type day_row = { phase : string; writes : int; strong : int; weak : int; mac : int; overdue_after : int }

let default_day =
  [
    { label = "opening burst"; rate_per_sec = 2000.; duration_s = 0.25 };
    { label = "steady trading"; rate_per_sec = 100.; duration_s = 2. };
    { label = "lunch trickle"; rate_per_sec = 20.; duration_s = 2. };
    { label = "closing flood"; rate_per_sec = 8000.; duration_s = 0.5 };
  ]

let adaptive_day env ?(phases = default_day) () =
  let config = { Worm.default_config with datasig_mode = Worm.Host_hash } in
  let store = Worm.create ~config ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
  let controller =
    Worm_core.Adaptive.create ~profile:(Device.config env.dev).Device.profile
      ~device_config:(Device.config env.dev) ()
  in
  let policy = Policy.of_regulation Policy.Sec17a4 in
  List.map
    (fun { label; rate_per_sec; duration_s } ->
      let n = max 1 (int_of_float (rate_per_sec *. duration_s)) in
      let strong = ref 0 and weak = ref 0 and mac = ref 0 in
      for _ = 1 to n do
        Clock.advance env.clk (Int64.of_float (1e9 /. rate_per_sec));
        let now = Clock.now env.clk in
        Worm_core.Adaptive.note_write controller ~now;
        let witness =
          Worm_core.Adaptive.recommend controller ~now
            ~deferred_backlog:(List.length (Worm.deferred_backlog store))
        in
        (match witness with
        | Firmware.Strong_now -> incr strong
        | Firmware.Weak_deferred -> incr weak
        | Firmware.Mac_deferred -> incr mac);
        ignore (Worm.write store ~witness ~policy ~blocks:[ "r" ])
      done;
      let overdue_after = List.length (Worm.deferred_overdue store ~now:(Clock.now env.clk)) in
      (* inter-phase quiet spell: drain the debt *)
      Clock.advance env.clk (Clock.ns_of_min 5.);
      Worm.idle_tick store;
      { phase = label; writes = n; strong = !strong; weak = !weak; mac = !mac; overdue_after })
    phases

type table2_row = { operation : string; scpu : string; host : string }

let table2 ?(profile = Cost_model.ibm_4764) ?(host = Cost_model.host_p4) () =
  let sig_row bits =
    {
      operation = Printf.sprintf "RSA sig, %d bits" bits;
      scpu = Printf.sprintf "%.0f/s" (Cost_model.rsa_sign_per_sec profile ~bits);
      host = Printf.sprintf "%.0f/s" (Cost_model.rsa_sign_per_sec host ~bits);
    }
  in
  let hash_row block label =
    {
      operation = Printf.sprintf "SHA-1, %s blocks" label;
      scpu = Printf.sprintf "%.2f MB/s" (Cost_model.hash_mb_per_sec profile ~block_bytes:block);
      host = Printf.sprintf "%.1f MB/s" (Cost_model.hash_mb_per_sec host ~block_bytes:block);
    }
  in
  [
    sig_row 512;
    sig_row 1024;
    sig_row 2048;
    hash_row 1024 "1 KB";
    hash_row 65536 "64 KB";
    {
      operation = "DMA transfer, end-to-end";
      scpu = Printf.sprintf "%.1f MB/s" (profile.Cost_model.dma_bytes_per_sec /. 1e6);
      host = Printf.sprintf "%.0f MB/s" (host.Cost_model.dma_bytes_per_sec /. 1e6);
    };
  ]

type audit_row = {
  slice_budget_ms : float;
  audit_records : int;
  audit_slices : int;
  scanned_per_slice : float;
  scrub_host_s : float;
  audit_baseline_rps : float;
  with_scrub_rps : float;
  audit_overhead_pct : float;
  audit_findings : int;
}

(* Steady-state cost of continuous compliance scrubbing: write a corpus,
   then complete one full audit pass in budgeted slices and compare the
   sustainable ingest rate with and without amortizing one verification
   pass per record lifetime. *)
let audit_overhead env ?(records = 150) ?(record_bytes = 1024) ?(budgets_ms = [ 0.5; 2.0; 10.0 ]) () =
  List.map
    (fun budget_ms ->
      let disk = Disk.create ~latency:Disk.fast_latency () in
      let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
      let policy = Policy.of_regulation Policy.Sec17a4 in
      let payloads = List.init records (fun _ -> Worm_workload.Workload.record env.rng ~bytes:record_bytes) in
      Device.reset_busy env.dev;
      Worm.reset_host_busy store;
      Disk.reset_busy disk;
      List.iter (fun blocks -> ignore (Worm.write store ~policy ~blocks)) payloads;
      let write_scpu_s = sec (Device.busy_ns env.dev) in
      let write_host_s = sec (Worm.host_busy_ns store) in
      let write_disk_s = sec (Disk.busy_ns disk) in
      let write_slowest = Float.max write_scpu_s (Float.max write_host_s write_disk_s) in
      let client = Client.for_store ~ca:(Rsa.public_of env.ca) ~clock:env.clk store in
      let config =
        {
          Worm_audit.Scrubber.default_config with
          slice_budget_ns = Clock.ns_of_ms budget_ms;
        }
      in
      let scrubber = Worm_audit.Scrubber.create ~config ~store ~client () in
      Worm.reset_host_busy store;
      let report = Worm_audit.Scrubber.run_pass scrubber in
      let scrub_host_s = sec (Worm.host_busy_ns store) in
      let baseline_rps = if write_slowest <= 0. then infinity else float_of_int records /. write_slowest in
      (* Steady state: every record written is also scrubbed once per
         pass, so the ingest pipeline carries both costs. *)
      let with_scrub_slowest = Float.max (write_host_s +. scrub_host_s) (Float.max write_scpu_s write_disk_s) in
      let with_scrub_rps =
        if with_scrub_slowest <= 0. then infinity else float_of_int records /. with_scrub_slowest
      in
      {
        slice_budget_ms = budget_ms;
        audit_records = report.Worm_audit.Report.records_scanned;
        audit_slices = report.Worm_audit.Report.slices;
        scanned_per_slice =
          float_of_int report.Worm_audit.Report.records_scanned
          /. float_of_int (max 1 report.Worm_audit.Report.slices);
        scrub_host_s;
        audit_baseline_rps = baseline_rps;
        with_scrub_rps;
        audit_overhead_pct =
          (if baseline_rps > 0. && baseline_rps <> infinity then
             100. *. (baseline_rps -. with_scrub_rps) /. baseline_rps
           else 0.);
        audit_findings = List.length report.Worm_audit.Report.findings;
      })
    budgets_ms

type erasure_row = {
  tenant_records : int;
  erase_scpu_us : float;
  erase_host_us : float;
  shred_disk_us : float;
}

(* The right to be forgotten: destroying one per-tenant key inside the
   SCPU erases every record the tenant ever wrote, in time independent
   of how many there are. Sweep the tenant's volume across three or
   more orders of magnitude; the shred baseline (overwrite every block
   through the disk, as a key-less design must) grows linearly while
   the crypto-erasure columns stay flat. Each row is gated: the
   SCPU-signed erasure certificate must verify against the CA-rooted
   deletion certificate, every erased read must come back
   properly-erased, and a bystander tenant's end-to-end verdicts must
   be identical before and after the neighbour's erasure. *)
let tenant_erasure env ?(volumes = [ 10; 100; 1_000; 10_000 ]) ?(record_bytes = 256) () =
  let policy = Policy.of_regulation Policy.Sec17a4 in
  List.map
    (fun volume ->
      let disk = Disk.create ~latency:Disk.fast_latency () in
      let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
      let client = Client.for_store ~ca:(Rsa.public_of env.ca) ~clock:env.clk store in
      let write tenant =
        Worm.write store ~tenant ~policy ~blocks:(Worm_workload.Workload.record env.rng ~bytes:record_bytes)
      in
      let control = List.init 8 (fun _ -> write "control") in
      let subject = List.init volume (fun _ -> write "subject") in
      let fingerprint () =
        List.map (fun sn -> Client.verdict_name (Client.verify_read client ~sn (Worm.read store sn))) control
      in
      let pre = fingerprint () in
      (* The linear baseline first: walk the tenant's records and
         overwrite each block on the platter. This destroys ciphertext
         the erased read path never touches again, so measuring it on
         the same store is safe. *)
      Disk.reset_busy disk;
      List.iter
        (fun sn ->
          match Vrdt.find (Worm.vrdt store) sn with
          | Some (Vrdt.Active vrd) -> List.iter (fun rd -> ignore (Disk.shred disk ~passes:1 rd)) vrd.Vrd.rdl
          | _ -> failwith "tenant-erasure: subject record missing from the VRDT")
        subject;
      let shred_disk_us = sec (Disk.busy_ns disk) *. 1e6 in
      Device.reset_busy env.dev;
      Worm.reset_host_busy store;
      let cert = Worm.erase_tenant store ~tenant:"subject" in
      let erase_scpu_us = sec (Device.busy_ns env.dev) *. 1e6 in
      let erase_host_us = sec (Worm.host_busy_ns store) *. 1e6 in
      (match Client.verify_erasure_cert client cert with
      | Ok () -> ()
      | Error e -> failwith ("tenant-erasure: certificate rejected: " ^ e));
      List.iter
        (fun sn ->
          match Client.verdict_name (Client.verify_read client ~sn (Worm.read store sn)) with
          | "properly-erased" -> ()
          | v -> failwith (Printf.sprintf "tenant-erasure: erased read came back %s" v))
        subject;
      if not (List.equal String.equal pre (fingerprint ())) then
        failwith "tenant-erasure: bystander tenant's verdicts changed across the erasure";
      { tenant_records = volume; erase_scpu_us; erase_host_us; shred_disk_us })
    volumes

(* ------------------------------------------------------------------ *)
(* Remote audits over a misbehaving wire: how much retry traffic and
   virtual wire time each fault regime costs, and whether the verdicts
   stay identical to a clean run (they must — §3's argument needs every
   transport misbehavior to degrade to a verdict, never to a crash or a
   false accusation). *)

module Netsim = Worm_proto.Netsim
module Faulty = Worm_proto.Faulty
module Server = Worm_proto.Server
module Remote_client = Worm_proto.Remote_client

type fault_row = {
  fault_label : string;  (** fault kind, ["clean"] for the baseline *)
  injected_rate : float;
  fault_attempts : int;  (** physical transport calls for the full audit *)
  fault_retries : int;
  fault_resumes : int;  (** extra runs needed to cover the SN space *)
  fault_reverifications : int;
  wire_ms : float;  (** virtual wire + wait time, Netsim ledger *)
  wire_overhead : float;  (** wire_ms relative to the clean run *)
  fault_verdicts_match : bool;  (** violations/coverage identical to clean *)
}

let fault_fixture ~seed ~records =
  let rng = Drbg.create ~seed:("fault-sim|" ^ seed) in
  let ca = Rsa.generate rng ~bits:1024 in
  let clk = Clock.create () in
  let dev = Device.provision ~seed:("fault-scpu|" ^ seed) ~clock:clk ~ca ~name:"sim-fault-scpu" () in
  let store = Worm.create ~device:dev ~ca:(Rsa.public_of ca) () in
  let short = Policy.custom ~name:"short" ~retention_ns:(Clock.ns_of_sec 10.) ~shred_passes:1 in
  let long = Policy.custom ~name:"long" ~retention_ns:(Clock.ns_of_sec 3600.) ~shred_passes:1 in
  (* Mixed proof shapes: a deleted bottom region the base bound absorbs,
     a collapsed window behind a live anchor, live records on top. *)
  let quarter = Stdlib.max 1 (records / 4) in
  for i = 1 to quarter do
    ignore (Worm.write store ~policy:short ~blocks:[ Printf.sprintf "below-%d" i ])
  done;
  ignore (Worm.write store ~policy:long ~blocks:[ "anchor" ]);
  for i = 1 to quarter do
    ignore (Worm.write store ~policy:short ~blocks:[ Printf.sprintf "window-%d" i ])
  done;
  for i = 1 to Stdlib.max 1 (records - (2 * quarter) - 1) do
    ignore (Worm.write store ~policy:long ~blocks:[ Printf.sprintf "live-%d" i ])
  done;
  Clock.advance clk (Clock.ns_of_sec 11.);
  ignore (Worm.expire_due store);
  Worm.idle_tick store;
  ignore (Worm.compact_windows store);
  Worm.heartbeat store;
  (Rsa.public_of ca, clk, store)

let remote_fault_tolerance ?(records = 24) ?(batch = 8) ?(rates = [ 0.05; 0.15; 0.3 ]) ~seed () =
  let ca, clk, store = fault_fixture ~seed ~records in
  let server = Server.create store in
  let honest = Server.handle_bytes server in
  let audit_under ~label faults =
    let net = Netsim.create () in
    let transport =
      match faults with
      | [] -> Netsim.wrap net honest
      | faults ->
          let faulty =
            Faulty.create ~seed:("fault-sim|" ^ seed ^ "|" ^ label) ~charge_delay:(Netsim.charge_ns net)
              ~faults honest
          in
          Netsim.wrap net (Faulty.transport faulty)
    in
    match Remote_client.connect ~ca ~clock:clk ~netsim:net transport with
    | Error e -> failwith ("remote_fault_tolerance: handshake failed under " ^ label ^ ": " ^ e)
    | Ok rc ->
        let audit = Remote_client.run_remote_audit_to_completion ~batch rc in
        (audit, Remote_client.transport_stats rc, Netsim.elapsed_ns net)
  in
  let fingerprint (a : Remote_client.remote_audit) =
    ( a.Remote_client.scanned,
      a.Remote_client.skipped_below_base,
      List.map (fun (sn, v) -> (sn, Client.verdict_name v)) a.Remote_client.violations,
      a.Remote_client.resume = None )
  in
  let clean_audit, clean_stats, clean_elapsed = audit_under ~label:"clean" [] in
  let clean_fp = fingerprint clean_audit in
  let ms ns = Int64.to_float ns /. 1e6 in
  let row ~label ~rate faults =
    let audit, stats, elapsed = audit_under ~label faults in
    {
      fault_label = label;
      injected_rate = rate;
      fault_attempts = stats.Remote_client.attempts;
      fault_retries = stats.Remote_client.retries;
      fault_resumes = Stdlib.max 0 (audit.Remote_client.round_trips - clean_audit.Remote_client.round_trips);
      fault_reverifications = stats.Remote_client.reverifications;
      wire_ms = ms elapsed;
      wire_overhead = (if Int64.compare clean_elapsed 0L > 0 then Int64.to_float elapsed /. Int64.to_float clean_elapsed else 1.);
      fault_verdicts_match = fingerprint audit = clean_fp;
    }
  in
  let clean_row =
    {
      fault_label = "clean";
      injected_rate = 0.;
      fault_attempts = clean_stats.Remote_client.attempts;
      fault_retries = clean_stats.Remote_client.retries;
      fault_resumes = 0;
      fault_reverifications = clean_stats.Remote_client.reverifications;
      wire_ms = ms clean_elapsed;
      wire_overhead = 1.;
      fault_verdicts_match = true;
    }
  in
  let per_rate rate =
    [
      row ~label:(Printf.sprintf "drop@%.2f" rate) ~rate [ Faulty.Drop rate ];
      row ~label:(Printf.sprintf "garble@%.2f" rate) ~rate [ Faulty.Garble rate ];
      row ~label:(Printf.sprintf "truncate@%.2f" rate) ~rate [ Faulty.Truncate rate ];
      row ~label:(Printf.sprintf "duplicate@%.2f" rate) ~rate [ Faulty.Duplicate rate ];
      row
        ~label:(Printf.sprintf "delay@%.2f" rate)
        ~rate
        [ Faulty.Delay { p = rate; ns = Clock.ns_of_ms 2. } ];
    ]
  in
  (clean_row :: List.concat_map per_rate rates)
  @ [ row ~label:"crash@4+2" ~rate:0. [ Faulty.Crash { after = 4; down_for = 2 } ] ]

(* ------------------------------------------------------------------ *)
(* Multi-client event serving: thousands of writers multiplexed over
   one store through the event server, writes coalesced across
   connections into single signing flushes, reads interleaved, and a
   sequential no-fault client driving the identical workload as both
   the unbatched signing baseline and the convergence oracle. *)

module Event_server = Worm_proto.Event_server
module Message = Worm_proto.Message

type latency_summary = { p50_ms : float; p95_ms : float; p99_ms : float; mean_ms : float; max_ms : float }

let summarize_latencies ns =
  match List.sort Int64.compare ns with
  | [] -> { p50_ms = 0.; p95_ms = 0.; p99_ms = 0.; mean_ms = 0.; max_ms = 0. }
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let ms v = Int64.to_float v /. 1e6 in
      let pct q = arr.(Stdlib.min (n - 1) (Stdlib.max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))) in
      let total = List.fold_left Int64.add 0L sorted in
      {
        p50_ms = ms (pct 0.50);
        p95_ms = ms (pct 0.95);
        p99_ms = ms (pct 0.99);
        mean_ms = Int64.to_float total /. 1e6 /. float_of_int n;
        max_ms = ms arr.(n - 1);
      }

type multi_client_result = {
  mc_clients : int;
  mc_virtual_s : float;  (** event-run virtual makespan *)
  mc_writes_acked : int;
  mc_reads_ok : int;  (** read-after-write replies that verified clean *)
  mc_gave_up : int;
  mc_shed : int;  (** writes answered Busy by admission control *)
  mc_flushes : int;
  mc_strengthened_in_run : int;  (** debt repaid by shed slots during serving *)
  mc_deferred_after : int;  (** debt ledger depth when serving ended *)
  mc_sign_calls : int;  (** SCPU signing invocations, batched event run *)
  mc_baseline_sign_calls : int;  (** same workload, sequential per-request serving *)
  mc_write_latency : latency_summary;
  mc_read_latency : latency_summary;
  mc_fingerprint_match : bool;  (** faulty batched run converged to the sequential store *)
  mc_fault_stats : Faulty.stats option;
  mc_requests : int;  (** completions the event run delivered (or gave up) *)
  mc_minor_words_per_req : float;  (** wire-path minor-heap words per request *)
  mc_host_rps : float;  (** requests per second of real host CPU in the event run *)
}

(* Arrival times for a demand shape: each phase contributes
   rate * duration writes at fixed inter-arrival gaps. *)
let arrivals_of_phases phases =
  let t = ref 0L in
  List.concat_map
    (fun { rate_per_sec; duration_s; _ } ->
      let n = Stdlib.max 1 (int_of_float (rate_per_sec *. duration_s)) in
      let gap = Int64.of_float (1e9 /. rate_per_sec) in
      List.init n (fun _ ->
          t := Int64.add !t gap;
          !t))
    phases

(* Serving-phase fingerprint: after draining the deferred ledger (so
   witness strength no longer depends on which mode the burst chose),
   read every client's record back and verify it end-to-end with the
   real client verifier. Two runs that converged to the same store
   agree on every verdict name. *)
let mc_fingerprint ~ca ~clk store acks =
  let verifier = Client.for_store ~ca ~clock:clk store in
  Array.to_list
    (Array.mapi
       (fun i ack ->
         match ack with
         | None -> (i, "no-ack")
         | Some sn -> (i, Client.verdict_name (Client.verify_read verifier ~sn (Worm.read store sn))))
       acks)

let mc_drain store =
  let rec go total =
    let n = Worm.strengthen_pending store ~max:256 () in
    if n > 0 then go (total + n) else total
  in
  go 0

let multi_client ?(phases = default_day) ?(fault_rate = 0.08) ?(batch_size = 32) ?(debt_ceiling = 4096)
    ?(record_bytes = 256) ?(strong_bits = 1024) ?(weak_bits = 512) ~seed () =
  let arrivals = arrivals_of_phases phases in
  let clients = List.length arrivals in
  let wl_rng = Drbg.create ~seed:("mc-workload|" ^ seed) in
  let payloads = List.map (fun at -> (at, Worm_workload.Workload.record wl_rng ~bytes:record_bytes)) arrivals in
  let policy = Policy.of_regulation Policy.Sec17a4 in
  let store_config = { Worm.default_config with datasig_mode = Worm.Host_hash; default_witness = Firmware.Weak_deferred } in
  let fresh_stack () =
    let env = make_env ~strong_bits ~weak_bits ~seed:("mc|" ^ seed) () in
    let store = Worm.create ~config:store_config ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
    (env, store, Server.create store)
  in

  (* --- batched event-server run, over a faulty ingress path --- *)
  let env, store, server = fresh_stack () in
  let net = Netsim.create () in
  let faulty =
    if fault_rate <= 0. then None
    else
      Some
        (Faulty.create
           ~seed:("mc-faults|" ^ seed)
           ~charge_delay:(Netsim.charge_ns net)
           ~faults:
             [
               Faulty.Drop fault_rate;
               Faulty.Garble fault_rate;
               Faulty.Truncate fault_rate;
               Faulty.Delay { p = fault_rate; ns = Clock.ns_of_ms 2. };
             ]
           Fun.id)
  in
  let controller = Worm_core.Adaptive.create ~profile:(Device.config env.dev).Device.profile ~device_config:(Device.config env.dev) () in
  let es_config =
    {
      Event_server.default_config with
      batch_size;
      debt_ceiling;
      max_attempts = 10;
      witness = Event_server.Adaptive controller;
    }
  in
  let es = Event_server.create ~config:es_config ?ingress:(Option.map Faulty.transport faulty) ~clock:env.clk ~net server in
  let verifier = Client.for_store ~ca:(Rsa.public_of env.ca) ~clock:env.clk store in
  let acks = Array.make clients None in
  let write_lat = ref [] and read_lat = ref [] and reads_ok = ref 0 in
  List.iteri
    (fun i (at, payload) ->
      Event_server.submit es ~client:i ~at
        (Message.Write { policy; tenant = ""; blocks = payload })
        ~on_reply:(fun (c : Event_server.completion) ->
          match c.Event_server.outcome with
          | Event_server.Replied (Message.Write_ack { sn }) ->
              acks.(i) <- Some sn;
              write_lat := Int64.sub c.Event_server.delivered_ns c.Event_server.submitted_ns :: !write_lat;
              (* read-after-write: fetch the record just acked and
                 verify it like a remote client would *)
              Event_server.submit es ~client:i ~at:c.Event_server.delivered_ns (Message.Read sn)
                ~on_reply:(fun (rc : Event_server.completion) ->
                  match rc.Event_server.outcome with
                  | Event_server.Replied (Message.Read_reply { sn; response }) ->
                      read_lat := Int64.sub rc.Event_server.delivered_ns rc.Event_server.submitted_ns :: !read_lat;
                      (match Client.verify_read verifier ~sn response with
                      | Client.Violation _ -> ()
                      | _ -> incr reads_ok)
                  | _ -> ())
          | _ -> ()))
    payloads;
  (* Real-machine cost columns: the event server meters its own wire
     path (request encode, frame decode, response encode/framing —
     store dispatch and client callbacks excluded), and host CPU is
     wall time of the whole event run. Virtual-time columns are
     untouched — these measure the implementation, not the simulated
     hardware. *)
  let cpu0 = Sys.time () in
  Event_server.run es;
  let host_cpu_s = Sys.time () -. cpu0 in
  let requests = List.length (Event_server.completions es) in
  let wire_words = Event_server.wire_minor_words es in
  let stats = Event_server.stats es in
  let sign_calls = (Device.stats env.dev).Device.sign_calls in
  let deferred_after = Worm.deferred_length store in
  let virtual_s = sec (Clock.now env.clk) in
  ignore (mc_drain store);
  let fp_event = mc_fingerprint ~ca:(Rsa.public_of env.ca) ~clk:env.clk store acks in

  (* --- sequential no-fault baseline: identical workload, one
     request/response at a time through the same wire stack --- *)
  let benv, bstore, bserver = fresh_stack () in
  let backs = Array.make clients None in
  List.iteri
    (fun i (at, payload) ->
      Clock.advance_to benv.clk at;
      let reply = Server.handle_bytes bserver (Message.encode_request (Message.Write { policy; tenant = ""; blocks = payload })) in
      match Message.decode_response reply with
      | Ok (Message.Write_ack { sn }) ->
          backs.(i) <- Some sn;
          ignore (Server.handle_bytes bserver (Message.encode_request (Message.Read sn)))
      | _ -> ())
    payloads;
  let baseline_sign_calls = (Device.stats benv.dev).Device.sign_calls in
  ignore (mc_drain bstore);
  let fp_baseline = mc_fingerprint ~ca:(Rsa.public_of benv.ca) ~clk:benv.clk bstore backs in

  {
    mc_clients = clients;
    mc_virtual_s = virtual_s;
    mc_writes_acked = Array.fold_left (fun acc a -> if a = None then acc else acc + 1) 0 acks;
    mc_reads_ok = !reads_ok;
    mc_gave_up = stats.Event_server.gave_up;
    mc_shed = stats.Event_server.shed;
    mc_flushes = stats.Event_server.flushes;
    mc_strengthened_in_run = stats.Event_server.strengthened;
    mc_deferred_after = deferred_after;
    mc_sign_calls = sign_calls;
    mc_baseline_sign_calls = baseline_sign_calls;
    mc_write_latency = summarize_latencies !write_lat;
    mc_read_latency = summarize_latencies !read_lat;
    mc_fingerprint_match = fp_event = fp_baseline;
    mc_fault_stats = Option.map Faulty.stats faulty;
    mc_requests = requests;
    mc_minor_words_per_req = wire_words /. float_of_int (Stdlib.max 1 requests);
    mc_host_rps = (if host_cpu_s <= 0. then 0. else float_of_int requests /. host_cpu_s);
  }

let pp_latency fmt l =
  Format.fprintf fmt "p50 %.2f / p95 %.2f / p99 %.2f ms (mean %.2f, max %.2f)" l.p50_ms l.p95_ms l.p99_ms l.mean_ms
    l.max_ms

let pp_multi_client fmt r =
  Format.fprintf fmt
    "%d clients in %.2fs virtual: %d acked (%d shed, %d gave up), %d flushes, sign calls %d vs %d sequential \
     (x%.1f), write %a, read %a, verdicts %s"
    r.mc_clients r.mc_virtual_s r.mc_writes_acked r.mc_shed r.mc_gave_up r.mc_flushes r.mc_sign_calls
    r.mc_baseline_sign_calls
    (float_of_int r.mc_baseline_sign_calls /. float_of_int (Stdlib.max 1 r.mc_sign_calls))
    pp_latency r.mc_write_latency pp_latency r.mc_read_latency
    (if r.mc_fingerprint_match then "identical" else "DIVERGED")

let pp_fault_row fmt r =
  Format.fprintf fmt "%-16s %5d calls  %4d retries  %3d reverify  %8.2f ms wire (x%.2f)  verdicts %s"
    r.fault_label r.fault_attempts r.fault_retries r.fault_reverifications r.wire_ms r.wire_overhead
    (if r.fault_verdicts_match then "identical" else "DIVERGED")

let pp_measurement fmt (m : measurement) =
  Format.fprintf fmt "%-24s %7d B  %8.1f rec/s  (scpu %.4fs, host %.4fs, disk %.4fs; bottleneck %s; idle %.4fs)"
    m.label m.record_bytes m.throughput_rps m.scpu_s m.host_s m.disk_s m.bottleneck m.idle_scpu_s


(* ---------- measured cluster scaling ---------- *)
module Cluster_server = Worm_proto.Cluster_server

type cluster_shard_row = {
  cs_shard : int;
  cs_records : int;
  cs_scpu_s : float;
  cs_host_s : float;
  cs_disk_s : float;
  cs_rps : float;
  cs_bottleneck : string;
}

type cluster_row = {
  cl_shards : int;
  cl_records : int;
  cl_aggregate_rps : float;
  cl_speedup : float;
  cl_bottleneck_shard : int;
  cl_bottleneck : string;
  cl_makespan_s : float;
  cl_flushes : int;
  cl_proof_ok : bool;
  cl_global_current_ok : bool;
  cl_fingerprint_match : bool;
  cl_shard_rows : cluster_shard_row list;
  cl_minor_words_per_req : float;  (** wire-path minor-heap words per request, all shard loops *)
  cl_host_rps : float;  (** requests per second of real host CPU across the shard loops *)
}

module Shard_router = Worm_cluster.Shard_router
module Cluster_proof = Worm_cluster.Cluster_proof

(* Verdict plus content digest, the same shape Replicator's divergence
   audit compares: two runs that converged to the same records agree on
   every element. *)
let cluster_fp_of_verdict = function
  | Client.Valid_data { blocks; _ } ->
      let rec sep = function [] -> [] | [ b ] -> [ b ] | b :: rest -> b :: "\x00" :: sep rest in
      "valid:" ^ Worm_util.Hex.encode (Worm_crypto.Sha256.digest_parts (sep blocks))
  | v -> Client.verdict_name v

let cluster_scaling ?(record_bytes = 1024) ?(records = 48) ?(strong_bits = 1024) ?(weak_bits = 512) ~seed
    ~shards_list () =
  let policy = Policy.of_regulation Policy.Sec17a4 in
  let store_config =
    { Worm.default_config with datasig_mode = Worm.Host_hash; default_witness = Firmware.Strong_now }
  in
  (* one payload sequence shared by the sequential oracle and every
     cluster size: global record i+1 is the same bytes everywhere *)
  let payloads =
    let rng = Drbg.create ~seed:("cluster-workload|" ^ seed) in
    Array.init records (fun _ -> Worm_workload.Workload.record rng ~bytes:record_bytes)
  in

  (* --- sequential single-store oracle: same records, one synchronous
     request at a time through the ordinary wire stack --- *)
  let seq_fp =
    let env = make_env ~strong_bits ~weak_bits ~seed:("cluster-seq|" ^ seed) () in
    let store = Worm.create ~config:store_config ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
    let server = Server.create store in
    Array.iter
      (fun blocks ->
        ignore (Server.handle_bytes server (Message.encode_request (Message.Write { policy; tenant = ""; blocks }))))
      payloads;
    Clock.advance env.clk (Clock.ns_of_sec 1.);
    Worm.idle_tick store;
    let verifier = Client.for_store ~ca:(Rsa.public_of env.ca) ~clock:env.clk store in
    List.init records (fun i ->
        let sn = Serial.of_int (i + 1) in
        cluster_fp_of_verdict (Client.verify_read verifier ~sn (Worm.read store sn)))
  in

  let run n =
    let rng = Drbg.create ~seed:(Printf.sprintf "cluster-ca|%s|%d" seed n) in
    let ca = Rsa.generate rng ~bits:1024 in
    let clk = Clock.create () in
    let router_config =
      {
        Shard_router.default_config with
        Shard_router.shards = n;
        mirrored = false;
        store_config;
        device_config = { Device.default_config with Device.strong_bits; weak_bits };
        disk_latency = Disk.fast_latency;
      }
    in
    let router =
      Shard_router.create ~config:router_config ~seed:(Printf.sprintf "cluster|%s|%d" seed n) ~ca ~clock:clk ()
    in
    let front = Cluster_server.create router in
    let net = Netsim.create () in
    let es_config =
      { Event_server.default_config with batch_size = 8; witness = Event_server.Fixed Firmware.Strong_now }
    in
    Shard_router.reset_busy router;
    let acks = Array.make records None in
    let flushes = ref 0 in
    let makespans = Array.make n 0. in
    let shard_records = Array.make n 0 in
    (* One event loop per shard over the shared virtual clock. The loops
       run one after another — virtual time needs no interleaving to be
       honest — with each shard's submissions offset to its loop's start,
       so every per-shard ledger and makespan is the duration that shard
       alone would have taken; the cluster runs them in parallel, which
       is exactly what the max() aggregation below models. *)
    let wire_words = ref 0. and requests = ref 0 in
    let cpu0 = Sys.time () in
    for s = 0 to n - 1 do
      let shard_srv =
        match Cluster_server.shard_server front s with
        | Some srv -> srv
        | None -> failwith (Printf.sprintf "scaling workload: shard %d unexpectedly fenced" s)
      in
      let es = Event_server.create ~config:es_config ~clock:clk ~net shard_srv in
      let t0 = Clock.now clk in
      let gap = Clock.ns_of_us 100. in
      for i = 0 to records - 1 do
        if i mod n = s then begin
          let at = Int64.add t0 (Int64.mul (Int64.of_int shard_records.(s)) gap) in
          shard_records.(s) <- shard_records.(s) + 1;
          Event_server.submit es ~client:i ~at
            (Message.Write { policy; tenant = ""; blocks = payloads.(i) })
            ~on_reply:(fun (c : Event_server.completion) ->
              match c.Event_server.outcome with
              | Event_server.Replied (Message.Write_ack { sn }) ->
                  acks.(i) <- Some (Shard_router.register_ack router ~shard:s ~local:sn)
              | _ -> ())
        end
      done;
      Event_server.run es;
      makespans.(s) <- sec (Int64.sub (Clock.now clk) t0);
      wire_words := !wire_words +. Event_server.wire_minor_words es;
      requests := !requests + List.length (Event_server.completions es);
      flushes := !flushes + (Event_server.stats es).Event_server.flushes
    done;
    let host_cpu_s = Sys.time () -. cpu0 in
    (* burst ledgers, before idle maintenance muddies them *)
    let mets = Shard_router.metrics router in
    Clock.advance clk (Clock.ns_of_sec 1.);
    Shard_router.idle_tick router;
    let shard_rows =
      List.map
        (fun (m : Shard_router.shard_metrics) ->
          let scpu_s = sec m.Shard_router.sm_scpu_busy_ns in
          let host_s = sec m.Shard_router.sm_host_busy_ns in
          let disk_s = sec m.Shard_router.sm_disk_busy_ns in
          let slowest = max scpu_s (max host_s disk_s) in
          {
            cs_shard = m.Shard_router.sm_shard;
            cs_records = shard_records.(m.Shard_router.sm_shard);
            cs_scpu_s = scpu_s;
            cs_host_s = host_s;
            cs_disk_s = disk_s;
            cs_rps =
              (if slowest <= 0. then infinity
               else float_of_int shard_records.(m.Shard_router.sm_shard) /. slowest);
            cs_bottleneck =
              (if slowest = scpu_s then "scpu" else if slowest = host_s then "host" else "disk");
          })
        mets
    in
    let slowest_of r = max r.cs_scpu_s (max r.cs_host_s r.cs_disk_s) in
    let bottleneck_row =
      List.fold_left (fun acc r -> if slowest_of r > slowest_of acc then r else acc)
        (List.hd shard_rows) shard_rows
    in
    let cluster_slowest = slowest_of bottleneck_row in
    let proof_ok, global_ok =
      match Shard_router.freshness_proof router with
      | Error _ -> (false, false)
      | Ok proof -> (
          let ok =
            Cluster_proof.verify ~ca:(Rsa.public_of ca) ~now:(Clock.now clk) proof = Ok ()
          in
          match Cluster_proof.global_current proof with
          | Ok g -> (ok, Serial.to_int g = records)
          | Error _ -> (ok, false))
    in
    let verifiers = Shard_router.verifiers router in
    let fp =
      List.init records (fun i ->
          let g = Serial.of_int (i + 1) in
          match acks.(i) with
          | Some acked when Serial.equal acked g ->
              cluster_fp_of_verdict (Shard_router.verify_read router verifiers g (Shard_router.read router g))
          | Some _ -> "misrouted-ack"
          | None -> "no-ack")
    in
    {
      cl_shards = n;
      cl_records = records;
      cl_aggregate_rps = (if cluster_slowest <= 0. then infinity else float_of_int records /. cluster_slowest);
      cl_speedup = 1.0;
      cl_bottleneck_shard = bottleneck_row.cs_shard;
      cl_bottleneck = bottleneck_row.cs_bottleneck;
      cl_makespan_s = Array.fold_left max 0. makespans;
      cl_flushes = !flushes;
      cl_proof_ok = proof_ok;
      cl_global_current_ok = global_ok;
      cl_fingerprint_match = fp = seq_fp;
      cl_shard_rows = shard_rows;
      cl_minor_words_per_req = !wire_words /. float_of_int (Stdlib.max 1 !requests);
      cl_host_rps = (if host_cpu_s <= 0. then 0. else float_of_int !requests /. host_cpu_s);
    }
  in
  let single_rps = ref None in
  List.map
    (fun n ->
      let row = run n in
      let base =
        match !single_rps with
        | Some r -> r
        | None ->
            let r = if n = 1 then row.cl_aggregate_rps else (run 1).cl_aggregate_rps in
            single_rps := Some r;
            r
      in
      { row with cl_speedup = row.cl_aggregate_rps /. base })
    shards_list

(** Throughput simulation (the paper's §5 evaluation).

    Runs real protocol traffic — genuine RSA signatures, hashes, disk
    and VRDT updates — through a {!Worm_core.Worm} store while the cost
    models charge virtual time to three resource ledgers: the SCPU
    (Table 2's IBM 4764 column), the host CPU (the P4 column), and the
    disk. In steady state the pipeline's throughput is set by its
    slowest stage, so

    {v throughput = records / max(scpu, host, disk busy time) v}

    which is what Figure 1 plots against record size for the different
    witnessing modes. Costs per record are deterministic, so modest
    record counts give exact results. *)

type mode = {
  label : string;
  witness : Worm_core.Firmware.witness_mode;
  datasig : Worm_core.Worm.datasig_mode;
}

val mode_strong_scpu_hash : mode
(** Sustained operation: 1024-bit signatures, SCPU hashes the data —
    the paper's 450–500 records/s regime. *)

val mode_strong_host_hash : mode
(** Sustained with host-side hashing (§4.2.2's weaker trust model). *)

val mode_weak_scpu_hash : mode
(** Burst: deferred 512-bit signatures, SCPU hashing. *)

val mode_weak_host_hash : mode
(** Burst: deferred 512-bit signatures + host hashing — the paper's
    2000–2500 records/s headline regime. *)

val mode_mac_host_hash : mode
(** Burst: HMAC witnesses — "practically unlimited throughputs at
    levels only restricted by the SCPU–main memory bus" (§4.3). *)

val all_modes : mode list

type measurement = {
  label : string;
  record_bytes : int;
  records : int;
  scpu_s : float;  (** SCPU busy seconds during the burst *)
  host_s : float;
  disk_s : float;
  throughput_rps : float;
  bottleneck : string;  (** "scpu" | "host" | "disk" *)
  idle_scpu_s : float;  (** deferred work paid later (strengthening + audits) *)
  deferred_after_idle : int;  (** must be 0: everything strengthened in time *)
}

type env
(** Shared provisioning (CA, SCPU device, clock) so sweeps don't pay
    RSA key generation per data point. *)

val make_env : ?profile:Worm_scpu.Cost_model.profile -> ?strong_bits:int -> ?weak_bits:int -> seed:string -> unit -> env

val device : env -> Worm_scpu.Device.t
val clock : env -> Worm_simclock.Clock.t

val run_write_burst :
  env ->
  mode:mode ->
  record_bytes:int ->
  records:int ->
  ?disk_latency:Worm_simdisk.Disk.latency_model ->
  unit ->
  measurement
(** One Figure 1 data point: ingest [records] records of [record_bytes]
    each under [mode], then run the idle maintenance and verify the
    deferred queue drained within every security lifetime. *)

val figure1 : env -> ?records:int -> unit -> measurement list
(** The full Figure 1 sweep: {!all_modes} x {!Worm_workload.Workload.figure1_sizes},
    on a fast disk so the WORM layer (not I/O) is what is measured. *)

val local_figure1 :
  profile:Worm_scpu.Cost_model.profile -> ?records:int -> ?sizes:int list -> seed:string -> unit -> measurement list
(** Figure 1 with the SCPU cost model replaced by a profile calibrated
    from measurements on the running host (see
    {!Worm_scpu.Cost_model.of_measurements}): projects what this machine
    would sustain in each witnessing mode. Provisions its own
    environment so the caller's [env] profile is undisturbed. *)

type read_row = {
  read_kind : string;  (** ["found-<n>KB"] or an absence-proof shape *)
  read_record_bytes : int;  (** 0 for absence proofs *)
  sig_verifies : float;  (** public-key verifications per uncached read *)
  uncached_rps : float;
  cached_rps : float;  (** epoch-stable signatures memoized, cost amortized *)
}

val read_projection :
  verify_per_sec:float ->
  hash_bytes_per_sec:float ->
  ?sizes:int list ->
  ?epoch_reads:int ->
  unit ->
  read_row list
(** {!local_figure1}'s counterpart for the §4.2.2 read path, from this
    host's measured verify and hash rates. Reads never involve the SCPU
    (§4.1): an uncached read costs its public-key verifications plus a
    hash over the record bytes. The [cached_rps] column amortizes the
    epoch-stable signatures — current/base bounds, window bounds, per-SN
    deletion proofs — over [epoch_reads] reads per refresh epoch
    (default 1024), modeling {!Worm_core.Client}'s verified-signature
    memo. Per-record witnesses are never cached, so found-record rows
    are identical in both columns. *)

val io_bottleneck : env -> ?records:int -> record_bytes:int -> unit -> (float * measurement) list
(** §5's closing observation: sweep disk seek latency 0–8 ms and watch
    the bottleneck shift from the WORM layer to I/O. Returns
    [(seek_ms, measurement)] rows. *)

type ablation_row = {
  n : int;  (** records inserted *)
  window_scpu_us_per_update : float;
  merkle_scpu_us_per_update : float;
  merkle_hashes_per_update : float;
}

val window_vs_merkle : env -> ns:int list -> ablation_row list
(** §2.3/§4.1 ablation: constant-cost window authentication versus
    O(log n) Merkle maintenance, as store size grows. Uses 1-byte
    records so authentication (not data hashing) dominates. *)

type read_mix_row = {
  write_fraction : float;
  ops_per_sec : float;
  scpu_us_per_op : float;  (** average SCPU time per operation *)
  mix_bottleneck : string;
}

val read_mix : env -> ?ops:int -> record_bytes:int -> unit -> read_mix_row list
(** §4.1's design payoff: "the SCPU is involved in updates only but not
    in reads, thus minimizing the overhead for a query load dominated by
    read queries". Sweeps the write fraction from read-only to
    write-only; SCPU cost per operation scales with the write fraction
    and a read-heavy store runs at disk speed. *)

type cluster_shard_row = {
  cs_shard : int;
  cs_records : int;
  cs_scpu_s : float;
  cs_host_s : float;
  cs_disk_s : float;
  cs_rps : float;  (** this shard's stripe alone, at its own bottleneck *)
  cs_bottleneck : string;
}

type cluster_row = {
  cl_shards : int;
  cl_records : int;
  cl_aggregate_rps : float;  (** whole workload over the slowest shard's busy time *)
  cl_speedup : float;  (** relative to the measured 1-shard cluster *)
  cl_bottleneck_shard : int;
  cl_bottleneck : string;  (** saturated resource on that shard *)
  cl_makespan_s : float;  (** slowest shard's event-loop virtual makespan *)
  cl_flushes : int;  (** batched signing flushes across all shard loops *)
  cl_proof_ok : bool;  (** aggregated freshness proof verified against the CA *)
  cl_global_current_ok : bool;  (** proof's coherent global bound equals records written *)
  cl_fingerprint_match : bool;  (** every global serial's verified content matches the sequential single store *)
  cl_shard_rows : cluster_shard_row list;
  cl_minor_words_per_req : float;
      (** wire-path minor-heap words per request across the shard event
          loops (encode/decode/framing only; store dispatch and client
          callbacks excluded) — real-machine cost, not part of the
          virtual-time model *)
  cl_host_rps : float;  (** requests per second of real host CPU across the shard loops *)
}

val cluster_scaling :
  ?record_bytes:int ->
  ?records:int ->
  ?strong_bits:int ->
  ?weak_bits:int ->
  seed:string ->
  shards_list:int list ->
  unit ->
  cluster_row list
(** §5: "These results naturally scale if multiple SCPUs are available."
    Measured multi-SCPU scaling: for each N in [shards_list], provision
    a real N-shard {!Worm_cluster.Shard_router} (independent SCPU +
    disk + host ledger per shard), mount one batching
    {!Worm_proto.Event_server} per shard over its
    {!Worm_proto.Cluster_server.shard_server}, drive the interleaved
    stripe of the same [records]-record workload through each loop, and
    report aggregate throughput from the per-shard busy ledgers — no
    multiplied projections. Every run is gated: the aggregated
    {!Worm_cluster.Cluster_proof} must verify and its coherent global
    bound must equal the record count, and reading every global serial
    back through the router must produce verdicts and content digests
    identical to a sequential single-store run of the same payloads. *)

type storage_row = { stage : string; vrdt_bytes : int; entries : int; windows : int }

val storage_reduction : env -> ?records:int -> ?long_lived_every:int -> unit -> storage_row list
(** §4.2.1's stated motivation: "Serial number issuing and VRDT
    management are designed to minimize the VRDT-related storage."
    Ingest a mixed-retention load (every [long_lived_every]-th record is
    long-lived, the rest expire), run the RM, and report the VRDT
    footprint before expiry, with per-record deletion proofs, and after
    window collapsing expels them. *)

type burst_row = {
  arrival_rps : float;  (** burst write arrival rate *)
  max_burst_min : float;
      (** longest burst (minutes) whose strengthening debt still clears
          within the weak constructs' security lifetime *)
  debt_per_sec : float;  (** strengthening signatures accrued per burst second *)
}

val burst_sustainability :
  ?profile:Worm_scpu.Cost_model.profile ->
  ?strong_bits:int ->
  ?weak_lifetime_min:float ->
  ?rates:float list ->
  unit ->
  burst_row list
(** §4.3 quantified: the paper allows deferred-construct bursts "of no
    more than 60-180 minutes (life-time of the short-lived constructs)".
    A burst at arrival rate [r] accrues strengthening debt at [2r]
    signatures/s; draining it FIFO at the strong key's rate [s] after
    the burst, every weak witness must be re-signed within its lifetime
    [L], giving

    {v T_max = L * min(1, s / (2r)) v}

    — the paper's "no more than the lifetime" bound when the strong key
    can keep pace ([2r <= s]), and the tighter repayment bound above it.
    Rows where [T_max < L] tell the operator the lifetime alone is not
    the binding constraint at that rate. *)

type day_phase = { label : string; rate_per_sec : float; duration_s : float }

type day_row = {
  phase : string;
  writes : int;
  strong : int;
  weak : int;
  mac : int;
  overdue_after : int;  (** deferred entries past their lifetime — must be 0 *)
}

val adaptive_day : env -> ?phases:day_phase list -> unit -> day_row list
(** Drive a store through load phases with the §4.3 {!Worm_core.Adaptive}
    controller choosing the witness strength per write, running idle
    maintenance between phases. Default phases model a trading day:
    opening burst, steady trading, lunch trickle, closing flood. The
    invariant checked per row: no deferred witness ever outlives its
    security lifetime. *)

type audit_row = {
  slice_budget_ms : float;  (** host budget per scrubber slice *)
  audit_records : int;  (** per-SN outcomes verified in the pass *)
  audit_slices : int;
  scanned_per_slice : float;
  scrub_host_s : float;  (** host CPU for the complete pass *)
  audit_baseline_rps : float;  (** ingest throughput, no scrubbing *)
  with_scrub_rps : float;  (** ingest throughput amortizing one scrub pass *)
  audit_overhead_pct : float;
  audit_findings : int;  (** must be 0 on an honest store *)
}

val audit_overhead : env -> ?records:int -> ?record_bytes:int -> ?budgets_ms:float list -> unit -> audit_row list
(** Steady-state cost of the continuous compliance scrubber
    ({!Worm_audit.Scrubber}): populate a store, complete one full audit
    pass in budgeted slices, and report how amortizing per-record
    verification into the ingest pipeline moves write throughput.
    Tighter budgets take more slices but the same total work — the
    knob trades audit latency against per-tick jitter, not total
    overhead. *)

type erasure_row = {
  tenant_records : int;  (** records the erased tenant owned *)
  erase_scpu_us : float;  (** SCPU busy time for the whole erasure (flat) *)
  erase_host_us : float;  (** host busy time for the whole erasure (flat) *)
  shred_disk_us : float;  (** disk busy time to shred the same records (linear) *)
}

val tenant_erasure : env -> ?volumes:int list -> ?record_bytes:int -> unit -> erasure_row list
(** O(1) crypto-erasure versus per-record shredding: for each volume in
    [volumes] (default spans 10 to 10,000 — three orders of magnitude),
    seal that many records under one tenant's key hierarchy, measure
    the disk time a key-less design would spend overwriting them, then
    measure {!Worm_core.Worm.erase_tenant} on the busy ledgers. Every
    row is gated before it is returned: the SCPU-signed erasure
    certificate must verify against the CA-rooted deletion certificate,
    every erased serial must read back as a provable properly-erased
    verdict, and a bystander tenant's end-to-end verdicts must be
    identical before and after the erasure.
    @raise Failure if any gate fails. *)

type fault_row = {
  fault_label : string;  (** fault kind, ["clean"] for the baseline *)
  injected_rate : float;
  fault_attempts : int;  (** physical transport calls for the full audit *)
  fault_retries : int;
  fault_resumes : int;  (** extra audit round trips vs. the clean run *)
  fault_reverifications : int;  (** confirming re-reads of violating verdicts *)
  wire_ms : float;  (** virtual wire + retry-wait time (Netsim ledger) *)
  wire_overhead : float;  (** [wire_ms] relative to the clean run *)
  fault_verdicts_match : bool;  (** violations/coverage identical to clean *)
}

val remote_fault_tolerance :
  ?records:int -> ?batch:int -> ?rates:float list -> seed:string -> unit -> fault_row list
(** Cost of graceful degradation on the wire: run
    {!Worm_proto.Remote_client.run_remote_audit_to_completion} against
    an honest store behind a {!Worm_proto.Faulty} transport (drop,
    garble, truncate, duplicate, delay at each rate in [rates], plus a
    bounded crash outage), with retry backoff charged to the
    {!Worm_proto.Netsim} ledger. Every row must report
    [fault_verdicts_match = true]: injected faults may only cost wire
    time and retries, never change what the audit concludes. *)

val pp_fault_row : Format.formatter -> fault_row -> unit

type latency_summary = { p50_ms : float; p95_ms : float; p99_ms : float; mean_ms : float; max_ms : float }

type multi_client_result = {
  mc_clients : int;
  mc_virtual_s : float;  (** event-run virtual makespan *)
  mc_writes_acked : int;
  mc_reads_ok : int;  (** read-after-write replies that verified clean *)
  mc_gave_up : int;
  mc_shed : int;  (** writes answered Busy by admission control *)
  mc_flushes : int;  (** cross-client signing batches *)
  mc_strengthened_in_run : int;  (** debt repaid by shed slots during serving *)
  mc_deferred_after : int;  (** debt ledger depth when serving ended *)
  mc_sign_calls : int;  (** SCPU signing invocations, batched event run *)
  mc_baseline_sign_calls : int;  (** same workload served sequentially, unbatched *)
  mc_write_latency : latency_summary;
  mc_read_latency : latency_summary;
  mc_fingerprint_match : bool;
      (** after both stores drained their deferred debt, every client's
          record read back with the same verified verdict in the faulty
          batched run as in the sequential clean run *)
  mc_fault_stats : Worm_proto.Faulty.stats option;
  mc_requests : int;  (** completions the event run delivered (or gave up) *)
  mc_minor_words_per_req : float;
      (** wire-path minor-heap words per request, metered by the event
          server around its own encode/decode/framing work — store
          dispatch (signing, hashing, disk) and client callbacks are
          excluded. Real-machine cost, not part of the virtual model. *)
  mc_host_rps : float;  (** requests per second of real host CPU in the event run *)
}

val multi_client :
  ?phases:day_phase list ->
  ?fault_rate:float ->
  ?batch_size:int ->
  ?debt_ceiling:int ->
  ?record_bytes:int ->
  ?strong_bits:int ->
  ?weak_bits:int ->
  seed:string ->
  unit ->
  multi_client_result
(** Drive one writer per arrival of [phases] (default {!default_day})
    through the real {!Worm_proto.Message} / {!Worm_proto.Server} stack
    twice: once through {!Worm_proto.Event_server} with cross-client
    batch witnessing, adaptive witness selection, debt-ceiling admission
    control, and a seeded {!Worm_proto.Faulty} ingress at [fault_rate]
    per fault kind; and once as a sequential no-fault client, which is
    both the unbatched [sign_calls] baseline and the convergence oracle
    for [mc_fingerprint_match]. Each acked write is followed by a
    read-after-write verified with the real client verifier.
    Deterministic in [seed]. *)

val pp_latency : Format.formatter -> latency_summary -> unit
val pp_multi_client : Format.formatter -> multi_client_result -> unit

type table2_row = { operation : string; scpu : string; host : string }

val table2 : ?profile:Worm_scpu.Cost_model.profile -> ?host:Worm_scpu.Cost_model.profile -> unit -> table2_row list
(** Regenerate Table 2 from the calibrated cost models. *)

val pp_measurement : Format.formatter -> measurement -> unit

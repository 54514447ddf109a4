(* Simulator and workload tests: the qualitative claims of the paper's
   evaluation must hold as ordering relations over the measured numbers
   (absolute values live in EXPERIMENTS.md, shapes are asserted here). *)

module Sim = Worm_sim.Sim
module Workload = Worm_workload.Workload
module Drbg = Worm_crypto.Drbg
module Disk = Worm_simdisk.Disk
open Worm_core

(* One shared env: device provisioning costs a 1024-bit keygen. *)
let env = lazy (Sim.make_env ~seed:"test-sim" ())

let run mode ?(record_bytes = 1024) ?(records = 12) () =
  Sim.run_write_burst (Lazy.force env) ~mode ~record_bytes ~records ()

(* ---------- workload ---------- *)

let test_record_splitting () =
  let rng = Drbg.create ~seed:"wl" in
  Alcotest.(check int) "one block" 1 (List.length (Workload.record rng ~bytes:1024));
  Alcotest.(check int) "64k exactly one block" 1 (List.length (Workload.record rng ~bytes:65536));
  let blocks = Workload.record rng ~bytes:200_000 in
  Alcotest.(check int) "200k split" 4 (List.length blocks);
  Alcotest.(check int) "sizes add up" 200_000 (List.fold_left (fun a b -> a + String.length b) 0 blocks);
  Alcotest.(check (list int)) "zero bytes = one empty block" [ 0 ]
    (List.map String.length (Workload.record rng ~bytes:0))

let test_mixed_trace_fractions () =
  let rng = Drbg.create ~seed:"wl2" in
  let ops =
    Workload.mixed_trace rng ~ops:1000 ~write_fraction:0.2 ~record_bytes:64
      ~policy:(Policy.of_regulation Policy.Sec17a4)
  in
  let writes =
    List.length
      (List.filter
         (function
           | Workload.Write _ -> true
           | Workload.Read _ -> false)
         ops)
  in
  Alcotest.(check bool) "roughly 20% writes" true (writes > 140 && writes < 260)

let test_short_retention_mix_bounds () =
  let rng = Drbg.create ~seed:"wl3" in
  let policies = Workload.short_retention_mix rng ~min_ns:100L ~max_ns:200L ~n:50 in
  Alcotest.(check int) "count" 50 (List.length policies);
  List.iter
    (fun p ->
      let r = p.Policy.retention_ns in
      Alcotest.(check bool) "in range" true (r >= 100L && r <= 200L))
    policies

(* ---------- Figure 1 orderings ---------- *)

let test_deferring_beats_sustained () =
  (* headline: deferred 512-bit signatures ~5x the strong-signature rate *)
  let strong = run Sim.mode_strong_host_hash () in
  let weak = run Sim.mode_weak_host_hash () in
  let ratio = weak.Sim.throughput_rps /. strong.Sim.throughput_rps in
  Alcotest.(check bool) "4x-6x speedup" true (ratio > 4.0 && ratio < 6.0)

let test_paper_absolute_ranges () =
  (* the paper's headline numbers for 1 KB records *)
  let strong = run Sim.mode_strong_host_hash () in
  Alcotest.(check bool) "sustained 400-500 rec/s" true
    (strong.Sim.throughput_rps > 400. && strong.Sim.throughput_rps < 500.);
  let weak = run Sim.mode_weak_host_hash () in
  Alcotest.(check bool) "deferred 2000-2500 rec/s" true
    (weak.Sim.throughput_rps > 2000. && weak.Sim.throughput_rps < 2500.)

let test_scpu_hash_mode_decays_with_size () =
  let small = run Sim.mode_strong_scpu_hash ~record_bytes:1024 () in
  let large = run Sim.mode_strong_scpu_hash ~record_bytes:262144 () in
  Alcotest.(check bool) "size hurts when SCPU hashes" true
    (large.Sim.throughput_rps < small.Sim.throughput_rps /. 3.)

let test_host_hash_mode_size_independent () =
  let small = run Sim.mode_strong_host_hash ~record_bytes:1024 () in
  let large = run Sim.mode_strong_host_hash ~record_bytes:262144 () in
  let ratio = large.Sim.throughput_rps /. small.Sim.throughput_rps in
  Alcotest.(check bool) "SCPU-side cost flat" true (ratio > 0.95 && ratio <= 1.05)

let test_hmac_mode_not_scpu_bound () =
  let m = run Sim.mode_mac_host_hash () in
  Alcotest.(check bool) "scpu not the bottleneck" true (m.Sim.bottleneck <> "scpu");
  let strong = run Sim.mode_strong_host_hash () in
  Alcotest.(check bool) "far above signature modes" true
    (m.Sim.throughput_rps > 3. *. strong.Sim.throughput_rps)

let test_deferred_work_paid_later () =
  let weak = run Sim.mode_weak_host_hash () in
  Alcotest.(check int) "queue drained in idle" 0 weak.Sim.deferred_after_idle;
  Alcotest.(check bool) "idle strengthening costs SCPU time" true (weak.Sim.idle_scpu_s > 0.);
  let strong = run Sim.mode_strong_host_hash () in
  Alcotest.(check bool) "strong mode defers almost nothing" true
    (strong.Sim.idle_scpu_s < weak.Sim.idle_scpu_s /. 2.)

(* ---------- I/O bottleneck (§5 closing claim) ---------- *)

let test_io_becomes_bottleneck () =
  let rows = Sim.io_bottleneck (Lazy.force env) ~record_bytes:1024 () in
  let fast = List.assoc 0.0 rows in
  Alcotest.(check string) "no-latency disk: WORM layer bound" "scpu" fast.Sim.bottleneck;
  let slow = List.assoc 3.5 rows in
  Alcotest.(check string) "enterprise disk: I/O bound" "disk" slow.Sim.bottleneck;
  Alcotest.(check bool) "throughput collapses with seek" true
    (slow.Sim.throughput_rps < fast.Sim.throughput_rps)

(* ---------- ablation: window vs Merkle ---------- *)

let test_window_vs_merkle_ablation () =
  let rows = Sim.window_vs_merkle (Lazy.force env) ~ns:[ 256; 4096; 65536 ] in
  (* window cost flat in n *)
  let w = List.map (fun r -> r.Sim.window_scpu_us_per_update) rows in
  (match w with
  | [ a; b; c ] ->
      Alcotest.(check bool) "flat window cost" true
        (abs_float (a -. c) /. a < 0.05 && abs_float (a -. b) /. a < 0.05)
  | _ -> Alcotest.fail "rows");
  (* merkle hash count grows logarithmically *)
  let hashes = List.map (fun r -> r.Sim.merkle_hashes_per_update) rows in
  match hashes with
  | [ h256; h4096; h65536 ] ->
      Alcotest.(check bool) "log growth" true (h256 < h4096 && h4096 < h65536);
      (* tree capacity rounds 65536 + sample up to 2^17: 18 hashes/update *)
      Alcotest.(check (float 0.6)) "log2(131072)+1" 18. h65536
  | _ -> Alcotest.fail "rows"

(* ---------- read-dominated loads (§4.1) ---------- *)

let test_reads_cost_no_scpu () =
  let rows = Sim.read_mix (Lazy.force env) ~ops:100 ~record_bytes:1024 () in
  let at f = List.find (fun r -> r.Sim.write_fraction = f) rows in
  Alcotest.(check (float 0.001)) "read-only load: zero SCPU" 0. (at 0.0).Sim.scpu_us_per_op;
  Alcotest.(check string) "read-only load runs at disk speed" "disk" (at 0.0).Sim.mix_bottleneck;
  (* SCPU cost per op grows with the write fraction *)
  Alcotest.(check bool) "monotone in write fraction" true
    ((at 0.1).Sim.scpu_us_per_op < (at 0.5).Sim.scpu_us_per_op
    && (at 0.5).Sim.scpu_us_per_op < (at 1.0).Sim.scpu_us_per_op);
  (* a 10%-write mix sustains far more ops than write-only *)
  Alcotest.(check bool) "read-heavy is much faster" true ((at 0.1).Sim.ops_per_sec > 2. *. (at 1.0).Sim.ops_per_sec)

(* ---------- multi-SCPU scaling (§5 closing claim) ---------- *)

let test_multi_scpu_scaling () =
  (* measured, not projected: a real N-shard router with one event loop
     per shard. Lower bounds only: measured speedups can land just above
     linear. *)
  let rows =
    Sim.cluster_scaling ~records:16 ~strong_bits:512 ~weak_bits:512 ~seed:"test" ~shards_list:[ 1; 2; 4 ] ()
  in
  List.iter
    (fun r ->
      let at = Printf.sprintf " at N=%d" r.Sim.cl_shards in
      Alcotest.(check bool) ("proof verifies" ^ at) true r.Sim.cl_proof_ok;
      Alcotest.(check bool) ("coherent global bound" ^ at) true r.Sim.cl_global_current_ok;
      Alcotest.(check bool) ("verdicts match the sequential store" ^ at) true r.Sim.cl_fingerprint_match)
    rows;
  match rows with
  | [ r1; r2; r4 ] ->
      Alcotest.(check (float 0.01)) "baseline speedup 1" 1.0 r1.Sim.cl_speedup;
      Alcotest.(check bool) "2 shards at least 1.8x" true (r2.Sim.cl_speedup >= 1.8);
      Alcotest.(check bool) "4 shards at least 3.5x" true (r4.Sim.cl_speedup >= 3.5);
      Alcotest.(check string) "still scpu-bound at 4" "scpu" r4.Sim.cl_bottleneck
  | _ -> Alcotest.fail "rows"

(* ---------- O(1) crypto-erasure ---------- *)

let test_tenant_erasure_flat () =
  (* three orders of magnitude, scaled down to test size; the workload
     itself gates cert verification, erased verdicts, and the bystander
     fingerprint, so reaching the rows means those held *)
  let rows = Sim.tenant_erasure (Lazy.force env) ~volumes:[ 2; 20; 200; 2_000 ] ~record_bytes:64 () in
  match rows with
  | [ r1; _; _; r4 ] as rows ->
      let erase r = r.Sim.erase_scpu_us +. r.Sim.erase_host_us in
      let lo = List.fold_left (fun acc r -> Float.min acc (erase r)) infinity rows in
      let hi = List.fold_left (fun acc r -> Float.max acc (erase r)) 0. rows in
      Alcotest.(check bool) "erasure cost is flat across 3 orders" true (hi <= 1.5 *. lo);
      (* the shred baseline grows with the data, erasure does not *)
      Alcotest.(check bool) "shred baseline is linear" true
        (r4.Sim.shred_disk_us > 100. *. r1.Sim.shred_disk_us);
      Alcotest.(check bool) "erasure beats shredding at volume" true (erase r4 < r4.Sim.shred_disk_us)
  | _ -> Alcotest.fail "rows"

(* ---------- storage reduction & burst sustainability ---------- *)

let test_storage_reduction_shape () =
  let rows = Sim.storage_reduction (Lazy.force env) ~records:200 ~long_lived_every:20 () in
  match rows with
  | [ live; proofs; compacted ] ->
      Alcotest.(check int) "all records live" 200 live.Sim.entries;
      (* proofs are much smaller than VRDs... *)
      Alcotest.(check bool) "proofs shrink the table" true (proofs.Sim.vrdt_bytes < live.Sim.vrdt_bytes);
      (* ...and compaction expels nearly all of them *)
      Alcotest.(check int) "only long-lived entries remain" 10 compacted.Sim.entries;
      Alcotest.(check bool) "windows exist" true (compacted.Sim.windows > 0);
      Alcotest.(check bool) "order-of-magnitude reduction" true
        (compacted.Sim.vrdt_bytes * 5 < proofs.Sim.vrdt_bytes)
  | _ -> Alcotest.fail "rows"

let test_burst_sustainability_shape () =
  let rows = Sim.burst_sustainability () in
  let at r = List.find (fun x -> x.Sim.arrival_rps = r) rows in
  (* at or below the sustained rate the lifetime is the only bound *)
  Alcotest.(check (float 0.01)) "sustained rate: full lifetime" 120. (at 424.).Sim.max_burst_min;
  Alcotest.(check (float 0.01)) "100/s: full lifetime" 120. (at 100.).Sim.max_burst_min;
  (* at the paper's burst rate the repayment bound binds *)
  let headline = (at 2096.).Sim.max_burst_min in
  Alcotest.(check bool) "2096/s bounded by repayment" true (headline > 20. && headline < 30.);
  Alcotest.(check bool) "monotone decreasing" true ((at 4000.).Sim.max_burst_min < headline)

(* ---------- adaptive day (§4.3 controller end to end) ---------- *)

let test_adaptive_day () =
  let rows = Sim.adaptive_day (Lazy.force env) () in
  Alcotest.(check int) "four phases" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) (r.Sim.phase ^ ": nothing overdue") 0 r.Sim.overdue_after;
      Alcotest.(check int)
        (r.Sim.phase ^ ": counts add up")
        r.Sim.writes
        (r.Sim.strong + r.Sim.weak + r.Sim.mac))
    rows;
  let phase name = List.find (fun r -> r.Sim.phase = name) rows in
  (* trickles run strong; bursts defer; the flood reaches MAC witnessing *)
  Alcotest.(check int) "trickle all strong" 0 ((phase "lunch trickle").Sim.weak + (phase "lunch trickle").Sim.mac);
  Alcotest.(check bool) "opening burst defers" true ((phase "opening burst").Sim.weak > 0);
  Alcotest.(check bool) "closing flood hits mac" true ((phase "closing flood").Sim.mac > 0)

(* ---------- Table 2 regeneration ---------- *)

let test_table2_rows_complete () =
  let rows = Sim.table2 () in
  Alcotest.(check int) "six rows" 6 (List.length rows);
  let ops = List.map (fun r -> r.Sim.operation) rows in
  Alcotest.(check bool) "has rsa rows" true (List.exists (fun o -> o = "RSA sig, 1024 bits") ops);
  Alcotest.(check bool) "has hash rows" true (List.exists (fun o -> o = "SHA-1, 64 KB blocks") ops);
  Alcotest.(check bool) "has dma row" true (List.exists (fun o -> o = "DMA transfer, end-to-end") ops)

let suite =
  [
    ("workload record splitting", `Quick, test_record_splitting);
    ("workload mixed trace", `Quick, test_mixed_trace_fractions);
    ("workload retention mix", `Quick, test_short_retention_mix_bounds);
    ("Fig1: deferring beats sustained ~5x", `Quick, test_deferring_beats_sustained);
    ("Fig1: paper absolute ranges", `Quick, test_paper_absolute_ranges);
    ("Fig1: scpu-hash decays with size", `Quick, test_scpu_hash_mode_decays_with_size);
    ("Fig1: host-hash size-independent", `Quick, test_host_hash_mode_size_independent);
    ("Fig1: hmac mode bus-limited", `Quick, test_hmac_mode_not_scpu_bound);
    ("deferred work paid in idle", `Quick, test_deferred_work_paid_later);
    ("I/O becomes the bottleneck", `Quick, test_io_becomes_bottleneck);
    ("ablation window vs merkle", `Quick, test_window_vs_merkle_ablation);
    ("multi-SCPU scaling", `Quick, test_multi_scpu_scaling);
    ("reads cost no SCPU", `Quick, test_reads_cost_no_scpu);
    ("tenant erasure is O(1)", `Quick, test_tenant_erasure_flat);
    ("storage reduction", `Quick, test_storage_reduction_shape);
    ("burst sustainability", `Quick, test_burst_sustainability_shape);
    ("adaptive day", `Quick, test_adaptive_day);
    ("table 2 rows", `Quick, test_table2_rows_complete);
  ]

let () = Alcotest.run "worm_sim" [ ("sim", suite) ]

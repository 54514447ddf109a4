(* Experiment runner: regenerate any table or figure from the paper's
   evaluation on demand.

     wormsim table2
     wormsim figure1 [--records N]
     wormsim hmac
     wormsim iobound [--size BYTES]
     wormsim ablation
     wormsim all *)

module Sim = Worm_sim.Sim
open Cmdliner

let hr title = Printf.printf "\n--- %s ---\n" title

let env = lazy (Sim.make_env ~seed:"wormsim" ())

let table2 () =
  hr "Table 2: primitive rates";
  Printf.printf "%-28s %14s %14s\n" "Function" "IBM 4764" "P4 @ 3.4GHz";
  List.iter
    (fun r -> Printf.printf "%-28s %14s %14s\n" r.Sim.operation r.Sim.scpu r.Sim.host)
    (Sim.table2 ())

let figure1 records csv =
  let measurements = Sim.figure1 (Lazy.force env) ~records () in
  if csv then begin
    Printf.printf "mode,record_bytes,records_per_sec,bottleneck\n";
    List.iter
      (fun (m : Sim.measurement) ->
        Printf.printf "%s,%d,%.1f,%s\n" m.Sim.label m.Sim.record_bytes m.Sim.throughput_rps m.Sim.bottleneck)
      measurements
  end
  else begin
    hr (Printf.sprintf "Figure 1: throughput vs record size (%d records/point)" records);
    List.iter (fun m -> Format.printf "%a@." Sim.pp_measurement m) measurements
  end

let hmac () =
  hr "HMAC witnessing (section 4.3)";
  List.iter
    (fun mode ->
      let m = Sim.run_write_burst (Lazy.force env) ~mode ~record_bytes:1024 ~records:24 () in
      Format.printf "%a@." Sim.pp_measurement m)
    [ Sim.mode_strong_host_hash; Sim.mode_weak_host_hash; Sim.mode_mac_host_hash ]

let iobound size =
  hr (Printf.sprintf "I/O bottleneck sweep (%d-byte records)" size);
  Printf.printf "%-12s %12s %12s\n" "seek (ms)" "rec/s" "bottleneck";
  List.iter
    (fun (seek_ms, m) -> Printf.printf "%-12.1f %12.0f %12s\n" seek_ms m.Sim.throughput_rps m.Sim.bottleneck)
    (Sim.io_bottleneck (Lazy.force env) ~record_bytes:size ())

let readmix size =
  hr (Printf.sprintf "Read/write mix sweep (%d-byte records)" size);
  Printf.printf "%-16s %14s %18s %12s\n" "write fraction" "ops/s" "SCPU us/op" "bottleneck";
  List.iter
    (fun r ->
      Printf.printf "%-16.2f %14.0f %18.1f %12s\n" r.Sim.write_fraction r.Sim.ops_per_sec r.Sim.scpu_us_per_op
        r.Sim.mix_bottleneck)
    (Sim.read_mix (Lazy.force env) ~record_bytes:size ())

let storage () =
  hr "VRDT storage reduction (section 4.2.1)";
  Printf.printf "%-32s %14s %10s %10s\n" "stage" "VRDT bytes" "entries" "windows";
  List.iter
    (fun r -> Printf.printf "%-32s %14d %10d %10d\n" r.Sim.stage r.Sim.vrdt_bytes r.Sim.entries r.Sim.windows)
    (Sim.storage_reduction (Lazy.force env) ())

let burst () =
  hr "Burst sustainability (section 4.3)";
  Printf.printf "%-16s %20s %20s\n" "arrivals (rec/s)" "debt (sigs/s)" "max burst (min)";
  List.iter
    (fun r -> Printf.printf "%-16.0f %20.0f %20.1f\n" r.Sim.arrival_rps r.Sim.debt_per_sec r.Sim.max_burst_min)
    (Sim.burst_sustainability ())

let adaptive () =
  hr "Adaptive witness strength across a day (section 4.3)";
  Printf.printf "%-18s %8s %8s %8s %8s %14s\n" "phase" "writes" "strong" "weak" "mac" "overdue after";
  List.iter
    (fun r ->
      Printf.printf "%-18s %8d %8d %8d %8d %14d\n" r.Sim.phase r.Sim.writes r.Sim.strong r.Sim.weak r.Sim.mac
        r.Sim.overdue_after)
    (Sim.adaptive_day (Lazy.force env) ())

let scaling () =
  hr "Multi-SCPU scaling (measured N-shard cluster)";
  Printf.printf "%-8s %16s %10s %18s %10s %10s\n" "shards" "aggregate rec/s" "speedup" "bottleneck" "proof"
    "verdicts";
  List.iter
    (fun r ->
      Printf.printf "%-8d %16.0f %9.2fx %11s@shard%d %10s %10s\n" r.Sim.cl_shards r.Sim.cl_aggregate_rps
        r.Sim.cl_speedup r.Sim.cl_bottleneck r.Sim.cl_bottleneck_shard
        (if r.Sim.cl_proof_ok && r.Sim.cl_global_current_ok then "verified" else "FAILED")
        (if r.Sim.cl_fingerprint_match then "identical" else "DIVERGED"))
    (Sim.cluster_scaling ~seed:"wormsim-scaling" ~shards_list:[ 1; 2; 4; 8 ] ())

let ablation () =
  hr "Window vs Merkle update costs";
  Printf.printf "%-12s %18s %18s %18s\n" "records" "window us/update" "merkle us/update" "merkle hashes/up";
  List.iter
    (fun r ->
      Printf.printf "%-12d %18.1f %18.1f %18.1f\n" r.Sim.n r.Sim.window_scpu_us_per_update
        r.Sim.merkle_scpu_us_per_update r.Sim.merkle_hashes_per_update)
    (Sim.window_vs_merkle (Lazy.force env) ~ns:[ 256; 1024; 4096; 16384; 65536 ])

let records_arg =
  Arg.(value & opt int 24 & info [ "records" ] ~docv:"N" ~doc:"Records per data point.")

let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV (plot-ready).")

let size_arg =
  Arg.(value & opt int 1024 & info [ "size" ] ~docv:"BYTES" ~doc:"Record size in bytes.")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let all_cmd records size =
  table2 ();
  figure1 records false;
  hmac ();
  iobound size;
  ablation ();
  readmix size;
  storage ();
  burst ();
  adaptive ();
  scaling ()

let main =
  let doc = "Strong WORM experiment runner: regenerate the paper's tables and figures" in
  Cmd.group (Cmd.info "wormsim" ~doc)
    [
      cmd "table2" "Table 2: primitive rates from the calibrated cost models" Term.(const table2 $ const ());
      cmd "figure1" "Figure 1: throughput vs record size for all witnessing modes"
        Term.(const figure1 $ records_arg $ csv_arg);
      cmd "hmac" "Section 4.3: HMAC-witnessing throughput" Term.(const hmac $ const ());
      cmd "iobound" "Section 5: disk-latency sweep" Term.(const iobound $ size_arg);
      cmd "ablation" "Window scheme vs Merkle tree update costs" Term.(const ablation $ const ());
      cmd "scaling" "Multi-SCPU throughput scaling" Term.(const scaling $ const ());
      cmd "readmix" "Read-dominated query loads (section 4.1)" Term.(const readmix $ size_arg);
      cmd "storage" "VRDT storage reduction via deletion windows" Term.(const storage $ const ());
      cmd "burst" "Burst sustainability under deferred witnessing" Term.(const burst $ const ());
      cmd "adaptive" "Adaptive witness strength across a day of load phases" Term.(const adaptive $ const ());
      cmd "all" "Run every experiment" Term.(const all_cmd $ records_arg $ size_arg);
    ]

let () = exit (Cmd.eval main)

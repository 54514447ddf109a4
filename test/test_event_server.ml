(* The async event server and the protocol-path bugfix sweep: netsim
   rounding, deferred early-exit, server-side request caps, batch
   witness identity, cross-client batching, debt backpressure, and the
   faulty multi-client run converging to the sequential store. *)

open Worm_core
open Worm_testkit.Testkit
module Message = Worm_proto.Message
module Server = Worm_proto.Server
module Netsim = Worm_proto.Netsim
module Event_server = Worm_proto.Event_server
module Firmware = Worm_core.Firmware
module Sim = Worm_sim.Sim

(* ---------- Netsim billing rounds to nearest (was: truncated) ---------- *)

let test_netsim_rounding () =
  (* 1 Gbit/s default: one byte is exactly 8 ns *)
  let net = Netsim.create () in
  Alcotest.(check int64) "1B at default bandwidth" 8L (Netsim.transfer_ns net ~bytes:1);
  (* 400 MB/s: one byte is 2.5 ns — must round to 3, not truncate to 2 *)
  let net = Netsim.create ~rtt_ns:0L ~bandwidth_bytes_per_sec:400e6 () in
  Alcotest.(check int64) "rounds to nearest" 3L (Netsim.transfer_ns net ~bytes:1);
  (* the exchange ledger uses the rounded figure: a 1B request + 1B
     reply (2 bytes, 5 ns exactly) over a zero-RTT wire *)
  ignore (Netsim.wrap net Fun.id "x");
  Alcotest.(check int64) "wrap bills rounded transfer" 5L (Netsim.elapsed_ns net);
  let net = Netsim.create ~rtt_ns:1_000_000L ~bandwidth_bytes_per_sec:400e6 () in
  Alcotest.(check int64) "one-way = rtt/2 + transfer" 500_003L (Netsim.one_way_ns net ~bytes:1)

(* ---------- Deferred.overdue early-exits but answers like the fold ---------- *)

let prop_overdue_matches_naive =
  QCheck.Test.make ~name:"overdue equals naive full filter" ~count:300
    QCheck.(pair (small_list (pair small_nat small_nat)) small_nat)
    (fun (pairs, now) ->
      let t = Deferred.create () in
      List.iter (fun (sn, d) -> Deferred.push t ~sn:(Serial.of_int (sn + 1)) ~deadline:(Int64.of_int d)) pairs;
      let now = Int64.of_int now in
      let naive = List.filter (fun e -> Int64.compare e.Deferred.deadline now < 0) (Deferred.to_list t) in
      Deferred.overdue t ~now = naive)

(* ---------- server-side request caps ---------- *)

let capped_server env = Server.create ~limits:{ Server.max_read_many = 3; max_audit_slice = 2 } env.store

let test_read_many_cap () =
  let env = fresh_env ~disk_latency:Worm_simdisk.Disk.fast_latency () in
  let sns = write_n env 4 in
  let server = capped_server env in
  let disk_before = Worm_simdisk.Disk.busy_ns env.disk in
  (match Server.handle server (Message.Read_many (sns @ sns)) with
  | Message.Protocol_error _ ->
      (* refused before any per-SN work: the oversized frame bought no
         disk time it could use to monopolize the event loop *)
      Alcotest.(check int64) "no per-SN work done" disk_before (Worm_simdisk.Disk.busy_ns env.disk)
  | r -> Alcotest.fail ("expected Protocol_error, got " ^ Message.describe_response r));
  match Server.handle server (Message.Read_many [ List.hd sns ]) with
  | Message.Read_many_reply [ _ ] -> ()
  | r -> Alcotest.fail ("expected 1-entry reply, got " ^ Message.describe_response r)

let test_audit_slice_clamp () =
  let env = fresh_env () in
  let sns = write_n env 7 in
  let server = capped_server env in
  Server.refresh server;
  (* a hostile max cannot pin the loop: replies are clamped, and the
     truncated reply still lets an honest auditor walk to completion *)
  let rec sweep cursor covered rounds =
    if rounds > 100 then Alcotest.fail "audit made no progress"
    else begin
      match Server.handle server (Message.Audit_slice { cursor; max = max_int }) with
      | Message.Audit_slice_reply { replies; next; _ } -> begin
          Alcotest.(check bool) "clamped" true (List.length replies <= 2);
          match next with
          | Some sn -> sweep sn (covered + List.length replies) (rounds + 1)
          | None -> covered + List.length replies
        end
      | r -> Alcotest.fail ("expected audit reply, got " ^ Message.describe_response r)
    end
  in
  Alcotest.(check int) "every live record covered" (List.length sns) (sweep Serial.first 0 0)

(* ---------- Audit_slice dispatch is pure (was: heartbeat inside handle) ---------- *)

let test_audit_slice_handle_pure () =
  let env = fresh_env () in
  ignore (write_n env 5);
  let server = Server.create env.store in
  (* writes moved the SCPU counter past the cached bound — exactly the
     state where dispatch used to heartbeat behind the caller's back *)
  let before = (Worm_scpu.Device.stats env.device).Worm_scpu.Device.sign_calls in
  let req = Message.Audit_slice { cursor = Serial.first; max = 16 } in
  let r1 = Server.handle server req in
  Alcotest.(check int) "pure dispatch signs nothing" before
    (Worm_scpu.Device.stats env.device).Worm_scpu.Device.sign_calls;
  let r2 = Server.handle server req in
  Alcotest.(check bool) "replay serves identical reply" true (r1 = r2);
  (* the full path heals staleness once, then replays stay byte-identical
     even across a (sub-heartbeat) clock advance *)
  let bytes = Message.encode_request req in
  let first = Server.handle_bytes server bytes in
  Clock.advance env.clock (Clock.ns_of_sec 1.);
  let replay = Server.handle_bytes server bytes in
  Alcotest.(check bool) "handle_bytes replay identical across clock advance" true (first = replay)

(* ---------- batch-witnessed writes are byte-identical to single ---------- *)

let test_batch_witness_identity () =
  (* same seed AND same name: the name feeds the store_id inside every
     signed statement, so distinct names would hide a witness diff *)
  let mk () =
    let clock = Clock.create () in
    let device =
      Worm_scpu.Device.provision ~seed:"batch-vs-single" ~clock ~ca:(Lazy.force ca)
        ~config:Worm_scpu.Device.test_config ~name:"batch-scpu" ()
    in
    Worm.create ~device ~ca:(ca_pub ()) ()
  in
  let policy = short_policy () in
  let entries = List.init 5 (fun i -> (policy, [ Printf.sprintf "block-%d" i ])) in
  (* strong RSA witnessing is deterministic, so batching must be
     invisible on disk: same devices, same records, same bytes.
     (Weak certs are minted per signing call, so only verification
     equivalence — checked below — is promised for deferred modes.) *)
  let s_single = mk () in
  let sns_single = List.map (fun (policy, blocks) -> Worm.write ~witness:Firmware.Strong_now s_single ~policy ~blocks) entries in
  let s_batch = mk () in
  let sns_batch = Worm.write_batch ~witness:Firmware.Strong_now s_batch entries in
  Alcotest.(check (list int)) "same serials"
    (List.map Serial.to_int sns_single)
    (List.map Serial.to_int sns_batch);
  List.iter2
    (fun a b ->
      match (Worm.read s_single a, Worm.read s_batch b) with
      | Proof.Found { vrd = v1; _ }, Proof.Found { vrd = v2; _ } ->
          Alcotest.(check bool) "vrd byte-identical" true (Vrd.to_bytes v1 = Vrd.to_bytes v2)
      | _ -> Alcotest.fail "expected Found on both stores")
    sns_single sns_batch;
  (* and a real client accepts weak batch-witnessed records too *)
  let s_weak = mk () in
  let sns_weak = Worm.write_batch ~witness:Firmware.Weak_deferred s_weak entries in
  let clock = Clock.create () in
  let verifier = Client.for_store ~ca:(ca_pub ()) ~clock s_weak in
  List.iter
    (fun sn ->
      match Client.verify_read verifier ~sn (Worm.read s_weak sn) with
      | Client.Violation vs ->
          Alcotest.fail
            ("batch-witnessed record rejected: " ^ String.concat "," (List.map Client.violation_to_string vs))
      | _ -> ())
    sns_weak

(* ---------- the event server itself ---------- *)

let es_fixture ?(config = Event_server.default_config) ?ingress () =
  let env = fresh_env () in
  let server = Server.create env.store in
  let net = Netsim.create () in
  (env, Event_server.create ~config ?ingress ~clock:env.clock ~net server)

let test_event_server_batches () =
  let config = { Event_server.default_config with batch_size = 4 } in
  let env, es = es_fixture ~config () in
  let policy = short_policy () in
  let acked = ref [] and found = ref 0 in
  for i = 0 to 9 do
    Event_server.submit es ~client:i
      ~at:(Int64.mul (Int64.of_int i) (Clock.ns_of_ms 0.1))
      (Message.Write { policy; tenant = ""; blocks = [ Printf.sprintf "c%d" i ] })
      ~on_reply:(fun c ->
        match c.Event_server.outcome with
        | Event_server.Replied (Message.Write_ack { sn }) ->
            acked := sn :: !acked;
            Event_server.submit es ~client:i ~at:c.Event_server.delivered_ns (Message.Read sn)
              ~on_reply:(fun rc ->
                match rc.Event_server.outcome with
                | Event_server.Replied (Message.Read_reply { response = Proof.Found _; _ }) -> incr found
                | _ -> ())
        | _ -> ())
  done;
  Event_server.run es;
  let stats = Event_server.stats es in
  Alcotest.(check int) "all writes acked" 10 (List.length !acked);
  Alcotest.(check int) "all reads found their record" 10 !found;
  Alcotest.(check int) "all writes went through batches" 10 stats.Event_server.batched_writes;
  Alcotest.(check bool) "coalesced into few flushes" true (stats.Event_server.flushes <= 3);
  Alcotest.(check int) "serials are consecutive" 10 (List.length (List.sort_uniq Serial.compare !acked));
  ignore env

let test_event_server_backpressure () =
  (* ceiling 0 with deferred witnesses: every write after the first
     flush finds debt outstanding, gets shed with Busy, and its shed
     slot strengthens the backlog — so the retry is admitted *)
  let config =
    {
      Event_server.default_config with
      batch_size = 32;
      debt_ceiling = 0;
      witness = Event_server.Fixed Firmware.Weak_deferred;
    }
  in
  let env, es = es_fixture ~config () in
  let policy = short_policy () in
  let acked = ref 0 in
  for i = 0 to 5 do
    Event_server.submit es ~client:i
      ~at:(Int64.mul (Int64.of_int i) (Clock.ns_of_ms 5.))
      (Message.Write { policy; tenant = ""; blocks = [ Printf.sprintf "c%d" i ] })
      ~on_reply:(fun c ->
        match c.Event_server.outcome with
        | Event_server.Replied (Message.Write_ack _) -> incr acked
        | _ -> ())
  done;
  Event_server.run es;
  let stats = Event_server.stats es in
  Alcotest.(check int) "every shed write eventually landed" 6 !acked;
  Alcotest.(check bool) "admission control shed under debt" true (stats.Event_server.shed > 0);
  Alcotest.(check bool) "shed slots repaid debt" true (stats.Event_server.strengthened > 0);
  (* every shed slot drained the ledger before the next admission; only
     the final flush's own (not-yet-shed-against) entry may remain *)
  Alcotest.(check bool) "backpressure drained the ledger" true (Worm.deferred_length env.store <= 1)

(* A flushed batch pays its witnesses and nothing else: each of two
   back-to-back batches of strong writes costs exactly two strong
   signatures per write, although the first batch leaves the bound stale
   for the second. The next read heals the bound. *)
let test_write_batch_signs_twice_per_write () =
  let n = 4 in
  let config = { Event_server.default_config with batch_size = n } in
  let env, es = es_fixture ~config () in
  let policy = short_policy () in
  let strong_signs () = (Worm_scpu.Device.stats env.device).Worm_scpu.Device.strong_signs in
  let last = ref None in
  List.iter
    (fun round ->
      let before = strong_signs () in
      let at = Clock.now env.clock in
      for i = 0 to n - 1 do
        Event_server.submit es ~client:i ~at
          (Message.Write { policy; tenant = ""; blocks = [ Printf.sprintf "r%d-c%d" round i ] })
          ~on_reply:(fun c ->
            match c.Event_server.outcome with
            | Event_server.Replied (Message.Write_ack { sn }) -> last := Some sn
            | _ -> Alcotest.fail "write not acked")
      done;
      Event_server.run es;
      Alcotest.(check int) (Printf.sprintf "batch %d: 2 strong signs per write" round) (2 * n) (strong_signs () - before))
    [ 1; 2 ];
  Alcotest.(check int) "one flush per batch" 2 (Event_server.stats es).Event_server.flushes;
  let sn = Option.get !last and found = ref false in
  Event_server.submit es ~client:0 ~at:(Clock.now env.clock) (Message.Read sn) ~on_reply:(fun c ->
      match c.Event_server.outcome with
      | Event_server.Replied (Message.Read_reply { response = Proof.Found _; _ }) -> found := true
      | _ -> ());
  Event_server.run es;
  Alcotest.(check bool) "last write reads back" true !found;
  Alcotest.(check int) "the read re-signed the bound past it" (Serial.to_int sn)
    (Serial.to_int (Worm.peek_current_bound env.store).Firmware.sn)

(* ---------- multi-client: faulty batched run == sequential run ---------- *)

let test_multi_client_convergence () =
  let phases =
    [
      { Sim.label = "burst"; rate_per_sec = 2000.; duration_s = 0.02 };
      { Sim.label = "steady"; rate_per_sec = 200.; duration_s = 0.1 };
    ]
  in
  let r = Sim.multi_client ~phases ~fault_rate:0.1 ~batch_size:8 ~strong_bits:512 ~seed:"test-mc" () in
  Alcotest.(check int) "no client gave up" 0 r.Sim.mc_gave_up;
  Alcotest.(check int) "every write acked" r.Sim.mc_clients r.Sim.mc_writes_acked;
  Alcotest.(check int) "every read-after-write verified" r.Sim.mc_clients r.Sim.mc_reads_ok;
  Alcotest.(check bool) "verdict fingerprint identical to sequential" true r.Sim.mc_fingerprint_match;
  Alcotest.(check bool) "batching reduced signing invocations" true
    (r.Sim.mc_sign_calls < r.Sim.mc_baseline_sign_calls);
  Alcotest.(check bool) "virtual tail latency is populated" true (r.Sim.mc_write_latency.Sim.p99_ms > 0.)

let () =
  Alcotest.run "worm_event_server"
    [
      ( "bugfixes",
        [
          Alcotest.test_case "netsim rounds transfer time" `Quick test_netsim_rounding;
          QCheck_alcotest.to_alcotest prop_overdue_matches_naive;
          Alcotest.test_case "read-many capped server-side" `Quick test_read_many_cap;
          Alcotest.test_case "audit-slice max clamped" `Quick test_audit_slice_clamp;
          Alcotest.test_case "audit-slice dispatch is pure" `Quick test_audit_slice_handle_pure;
          Alcotest.test_case "batch witnesses byte-identical" `Quick test_batch_witness_identity;
        ] );
      ( "event-server",
        [
          Alcotest.test_case "cross-client write batching" `Quick test_event_server_batches;
          Alcotest.test_case "debt-ceiling backpressure" `Quick test_event_server_backpressure;
          Alcotest.test_case "faulty multi-client converges" `Quick test_multi_client_convergence;
          Alcotest.test_case "write batch signs twice per write" `Quick test_write_batch_signs_twice_per_write;
        ] );
    ]

(* Client/server protocol: codec roundtrips, remote verified reads, and
   man-in-the-middle resistance (an untrusted transport adds nothing to
   the untrusted host's powers). *)

open Worm_core
open Worm_testkit.Testkit
module Message = Worm_proto.Message
module Server = Worm_proto.Server
module Remote_client = Worm_proto.Remote_client
module Clock = Worm_simclock.Clock
module Codec = Worm_util.Codec

let remote_env () =
  let env = fresh_env () in
  let server = Server.create env.store in
  let transport = Server.handle_bytes server in
  (env, server, transport)

let connect_exn ?retry ?netsim env transport =
  match Remote_client.connect ~ca:(ca_pub ()) ~clock:env.clock ?retry ?netsim transport with
  | Ok rc -> rc
  | Error e -> Alcotest.fail e

(* ---------- codecs ---------- *)

let test_request_codec () =
  let cases =
    [
      Message.Hello;
      Message.Read (Serial.of_int 42);
      Message.Read_many [ Serial.of_int 1; Serial.of_int 2 ];
      Message.Audit_slice { cursor = Serial.of_int 9; max = 64 };
      Message.Write { policy = short_policy (); tenant = "acme"; blocks = [ "a"; "" ] };
      Message.Cluster_hello;
      Message.Cluster_read (Serial.of_int 3);
      Message.Cluster_read_many [ Serial.of_int 1; Serial.of_int 4 ];
      Message.Cluster_proof_get;
      Message.Erase_tenant "acme";
      Message.Erasure_cert_get "acme";
    ]
  in
  List.iter
    (fun r ->
      let bytes = Message.encode_request r in
      (* Event_server bills the network by this length without encoding *)
      Alcotest.(check int) ("wire length: " ^ Message.describe_request r) (String.length bytes)
        (Message.request_wire_length r);
      match Message.decode_request bytes with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    cases;
  match Message.decode_request "\xff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage request decoded"

let test_response_codec_all_proof_shapes () =
  (* produce one live response of every shape from a real store *)
  let env = fresh_env () in
  let long = short_policy ~retention_s:10_000. () in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "anchor" ]);
  let deleted = write_n env ~retention_s:10. 4 in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "anchor2" ]);
  let live = Worm.write env.store ~policy:long ~blocks:[ "alpha"; "beta" ] in
  ignore (expire_all env ~after_s:20.);
  ignore (Worm.compact_windows env.store);
  let shapes =
    [
      Worm.read env.store live (* Found *);
      Worm.read env.store (List.hd deleted) (* window or below-base or deleted *);
      Worm.read env.store (Serial.of_int 999) (* unallocated *);
      Proof.Refused "test excuse";
    ]
  in
  List.iter
    (fun response ->
      let encoded = Codec.encode Message.encode_read_response response in
      match Codec.decode Message.decode_read_response encoded with
      | Ok response' ->
          (* re-encoding must be stable (canonical) *)
          Alcotest.(check string)
            ("stable: " ^ Proof.describe response)
            encoded
            (Codec.encode Message.encode_read_response response')
      | Error e -> Alcotest.fail e)
    shapes;
  (* whole messages through the server's encode-once memo, each taken
     twice so the memo is both cold and warm: memo bytes equal the plain
     encoding, re-encode canonically, and match the lengths Event_server
     bills the network by without encoding *)
  let server = Server.create env.store in
  Server.refresh server;
  let responses =
    List.map (fun response -> Message.Read_reply { sn = live; response }) shapes
    @ List.map (Server.handle server)
        [
          Message.Hello;
          Message.Read_many (Serial.range Serial.first live);
          Message.Audit_slice { cursor = Serial.first; max = 64 };
        ]
  in
  List.iter
    (fun response ->
      let name = Message.describe_response response in
      let plain = Message.encode_response response in
      let memo = Server.encode_response server response in
      Alcotest.(check string) ("memo bytes: " ^ name) plain memo;
      Alcotest.(check int) ("wire length: " ^ name) (String.length plain) (Message.response_wire_length response);
      Alcotest.(check int) ("server wire length: " ^ name) (String.length memo)
        (Server.response_wire_length server response);
      match Message.decode_response plain with
      | Ok response' -> Alcotest.(check string) ("canonical: " ^ name) plain (Message.encode_response response')
      | Error e -> Alcotest.fail e)
    (responses @ responses)

let test_verdict_survives_serialization () =
  (* verifying a decoded response gives the same verdict as the local one *)
  let env = fresh_env () in
  let sn = write env ~blocks:[ "payload" ] () in
  let local = Worm.read env.store sn in
  let remote =
    match Codec.decode Message.decode_read_response (Codec.encode Message.encode_read_response local) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "same verdict"
    (Client.verdict_name (Client.verify_read env.client ~sn local))
    (Client.verdict_name (Client.verify_read env.client ~sn remote))

let test_audit_slice_reply_codec () =
  let env, _server, transport = remote_env () in
  ignore (write_n env 3);
  let raw = transport (Message.encode_request (Message.Audit_slice { cursor = Serial.first; max = 8 })) in
  match Message.decode_response raw with
  | Ok (Message.Audit_slice_reply { replies; next; _ } as resp) ->
      Alcotest.(check int) "one reply per record" 3 (List.length replies);
      Alcotest.(check bool) "terminal slice" true (next = None);
      (* re-encoding must be stable (canonical) *)
      Alcotest.(check string) "stable" raw (Message.encode_response resp)
  | Ok _ -> Alcotest.fail "expected an audit-slice reply"
  | Error e -> Alcotest.fail e

(* ---------- the protocol ---------- *)

let test_handshake_and_read () =
  let env, _server, transport = remote_env () in
  let sn = write env ~blocks:[ "remote payload" ] () in
  let rc = connect_exn env transport in
  Alcotest.(check string) "store id" (Worm.store_id env.store) (Remote_client.store_id rc);
  (match Remote_client.read rc sn with
  | Client.Valid_data { blocks; _ } -> Alcotest.(check (list string)) "data" [ "remote payload" ] blocks
  | v -> Alcotest.fail (Client.verdict_name v));
  match Remote_client.read rc (Serial.of_int 50) with
  | Client.Never_written -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_audit_sweep () =
  let env, _server, transport = remote_env () in
  let sns = write_n env ~retention_s:10. 3 in
  let keep = write env ~policy:(short_policy ~retention_s:10_000. ()) () in
  ignore (expire_all env ~after_s:20.);
  let rc = connect_exn env transport in
  let results = Remote_client.audit_sweep rc ~lo:Serial.first ~hi:(Serial.of_int 4) in
  Alcotest.(check int) "four rows" 4 (List.length results);
  List.iter
    (fun sn ->
      match List.assoc sn results with
      | Client.Properly_deleted -> ()
      | v -> Alcotest.fail (Client.verdict_name v))
    sns;
  (match List.assoc keep results with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail (Client.verdict_name v));
  Alcotest.(check bool) "bytes accounted" true
    (Remote_client.bytes_sent rc > 0 && Remote_client.bytes_received rc > 0)

let test_remote_full_audit_honest () =
  let env, _server, transport = remote_env () in
  (* a deleted bottom region advances the SCPU base; the audit must skip
     it wholesale (one representative probe), not read it per-record *)
  ignore (write_n env ~retention_s:10. 4);
  ignore (expire_all env ~after_s:20.);
  Worm.idle_tick env.store;
  ignore (write_n env ~retention_s:10_000. 3);
  let rc = connect_exn env transport in
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check int) "no violations" 0 (List.length audit.Remote_client.violations);
  Alcotest.(check int) "live region scanned" 3 audit.Remote_client.scanned;
  Alcotest.(check int64) "below-base region skipped" 4L audit.Remote_client.skipped_below_base;
  Alcotest.(check bool) "batched, not per-record" true (audit.Remote_client.round_trips <= 4)

let refuse_slices transport req =
  (* a dishonest dispatcher serves audit slices but refuses every record *)
  match Message.decode_request req with
  | Ok (Message.Audit_slice _) -> begin
      match Message.decode_response (transport req) with
      | Ok (Message.Audit_slice_reply { replies; next; base; current }) ->
          let replies = List.map (fun (sn, _) -> (sn, Proof.Refused "none of your business")) replies in
          Message.encode_response (Message.Audit_slice_reply { replies; next; base; current })
      | _ -> transport req
    end
  | _ -> transport req

let test_remote_audit_catches_refusing_dispatcher () =
  let env, _server, transport = remote_env () in
  let sns = write_n env 5 in
  (* without confirming re-reads, every refused slice row is flagged *)
  let rc = connect_exn ~retry:Remote_client.no_retry env (refuse_slices transport) in
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check int) "every refusal flagged" (List.length sns)
    (List.length audit.Remote_client.violations)

let test_refused_slices_heal_by_record_fallback () =
  (* With confirming re-reads enabled, a server lying only in its audit
     slices merely degrades the audit to per-record reads — the honest
     individual replies carry the proofs, so nothing is flagged and the
     lie costs the server extra traffic, not the auditor a false alarm. *)
  let env, _server, transport = remote_env () in
  ignore (write_n env 5);
  let rc = connect_exn env (refuse_slices transport) in
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check int) "slice refusals healed by re-reads" 0 (List.length audit.Remote_client.violations);
  Alcotest.(check bool) "re-reads actually happened" true
    ((Remote_client.transport_stats rc).Remote_client.reverifications > 0);
  (* a dispatcher that refuses individual reads too has nowhere to hide *)
  let refuse_everything req =
    match Message.decode_request req with
    | Ok (Message.Read sn) ->
        Message.encode_response (Message.Read_reply { sn; response = Proof.Refused "go away" })
    | _ -> refuse_slices transport req
  in
  let rc2 = connect_exn env refuse_everything in
  let audit2 = Remote_client.run_remote_audit rc2 in
  Alcotest.(check int) "refusing everything is flagged per record" 5
    (List.length audit2.Remote_client.violations)

let test_remote_audit_catches_stalling_cursor () =
  let env, _server, transport = remote_env () in
  ignore (write_n env 3);
  (* a server steering the resume cursor backwards is stalling the walk *)
  let evil req =
    match Message.decode_request req with
    | Ok (Message.Audit_slice _) -> begin
        match Message.decode_response (transport req) with
        | Ok (Message.Audit_slice_reply { replies; next = _; base; current }) ->
            Message.encode_response
              (Message.Audit_slice_reply { replies; next = Some Serial.first; base; current })
        | _ -> transport req
      end
    | _ -> transport req
  in
  let rc = connect_exn env evil in
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check bool) "stall flagged as a violation" true (audit.Remote_client.violations <> [])

let test_handshake_against_wrong_ca () =
  let env, _server, transport = remote_env () in
  ignore env;
  let other_ca = Worm_crypto.Rsa.public_of (Worm_crypto.Rsa.generate rng ~bits:512) in
  match Remote_client.connect ~ca:other_ca ~clock:env.clock transport with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign CA accepted over the wire"

(* ---------- adversarial transports ---------- *)

let flip_byte i s =
  if String.length s <= i then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  end

let test_mitm_bitflip_detected () =
  let env, _server, transport = remote_env () in
  let sn = write env ~blocks:[ "sensitive" ] () in
  let rc = connect_exn env transport in
  (* sanity: clean read works *)
  (match Remote_client.read rc sn with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail (Client.verdict_name v));
  (* now flip a byte somewhere in every read response (the handshake is
     left alone so the connection establishes) *)
  let evil_transport req =
    match Message.decode_request req with
    | Ok Message.Hello -> transport req
    | _ -> flip_byte 40 (transport req)
  in
  let rc_evil = connect_exn env evil_transport in
  match Remote_client.read rc_evil sn with
  | Client.Violation _ -> ()
  | v -> Alcotest.fail ("bitflip accepted: " ^ Client.verdict_name v)

let test_mitm_response_substitution_detected () =
  let env, _server, transport = remote_env () in
  let sn_a = write env ~blocks:[ "record A" ] () in
  let sn_b = write env ~blocks:[ "record B" ] () in
  let rc_evil =
    connect_exn env (fun req ->
        (* answer every read with record A's (valid!) reply *)
        match Message.decode_request req with
        | Ok (Message.Read _) -> transport (Message.encode_request (Message.Read sn_a))
        | _ -> transport req)
  in
  match Remote_client.read rc_evil sn_b with
  | Client.Violation _ -> () (* either wrong-serial inside the verdict or reply-sn mismatch *)
  | v -> Alcotest.fail ("substitution accepted: " ^ Client.verdict_name v)

let test_mitm_garbage_and_drop () =
  let env, _server, transport = remote_env () in
  let sn = write env () in
  let rc = connect_exn env transport in
  ignore rc;
  let rc_garbage = connect_exn env (fun req -> if String.length req > 2 then "garbage" else transport req) in
  (match Remote_client.read rc_garbage sn with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail ("garbage accepted: " ^ Client.verdict_name v));
  (* protocol errors likewise prove nothing *)
  let rc_err =
    connect_exn env (fun req ->
        match Message.decode_request req with
        | Ok Message.Hello -> transport req
        | _ -> Message.encode_response (Message.Protocol_error "server on fire"))
  in
  match Remote_client.read rc_err sn with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail ("error reply accepted: " ^ Client.verdict_name v)

(* ---------- exception safety & retries ---------- *)

exception Boom

(* A transport that works until the [n]-th call (1-based), then raises
   on every call from there on. *)
let raising_after n transport =
  let calls = ref 0 in
  fun req ->
    incr calls;
    if !calls >= n then raise Boom else transport req

let test_raising_transport_never_escapes () =
  let env, _server, transport = remote_env () in
  let sn = write env ~blocks:[ "survives" ] () in
  (* the handshake survives; every later call raises; no retry budget *)
  let rc = connect_exn ~retry:Remote_client.no_retry env (raising_after 2 transport) in
  (match Remote_client.read rc sn with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail ("raising transport leaked a verdict: " ^ Client.verdict_name v)
  | exception e -> Alcotest.fail ("exception escaped roundtrip: " ^ Printexc.to_string e));
  (match Remote_client.audit_sweep rc ~lo:sn ~hi:sn with
  | [ (_, Client.Violation [ Client.Absence_unproven ]) ] -> ()
  | _ -> Alcotest.fail "sweep over a raising transport"
  | exception e -> Alcotest.fail ("exception escaped audit_sweep: " ^ Printexc.to_string e));
  let stats = Remote_client.transport_stats rc in
  Alcotest.(check bool) "faults counted" true (stats.Remote_client.faults >= 2);
  (* a transport that raises during the handshake yields Error, not an
     exception *)
  match Remote_client.connect ~ca:(ca_pub ()) ~clock:env.clock (raising_after 1 transport) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connect over a dead transport succeeded"
  | exception e -> Alcotest.fail ("exception escaped connect: " ^ Printexc.to_string e)

let test_transient_fault_retried () =
  let env, _server, transport = remote_env () in
  let sn = write env ~blocks:[ "flaky" ] () in
  (* raise on exactly one mid-stream call: the default retry rides it out *)
  let calls = ref 0 in
  let flaky req =
    incr calls;
    if !calls = 3 then raise Boom else transport req
  in
  let rc = connect_exn env flaky in
  (match Remote_client.read rc sn with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail ("one fault defeated the retry policy: " ^ Client.verdict_name v));
  (match Remote_client.read rc sn with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail (Client.verdict_name v));
  let stats = Remote_client.transport_stats rc in
  Alcotest.(check int) "one retry" 1 stats.Remote_client.retries;
  Alcotest.(check int) "one fault" 1 stats.Remote_client.faults;
  Alcotest.(check bool) "virtual wait charged, not slept" true
    (Int64.compare stats.Remote_client.waited_ns 0L > 0)

let test_handshake_bytes_accounted () =
  let env, _server, transport = remote_env () in
  ignore (write env ());
  let net = Worm_proto.Netsim.create () in
  let rc = connect_exn ~netsim:net env (Worm_proto.Netsim.wrap net transport) in
  (* regression: the Hello reply used to be dropped from bytes_received *)
  Alcotest.(check bool) "handshake reply counted" true (Remote_client.bytes_received rc > 0);
  Alcotest.(check int) "client ledger matches the wire after the handshake"
    (Worm_proto.Netsim.bytes_transferred net)
    (Remote_client.bytes_sent rc + Remote_client.bytes_received rc);
  ignore (Remote_client.read rc (Serial.of_int 1));
  ignore (Remote_client.audit_sweep rc ~lo:Serial.first ~hi:(Serial.of_int 1));
  Alcotest.(check int) "ledgers still agree after traffic"
    (Worm_proto.Netsim.bytes_transferred net)
    (Remote_client.bytes_sent rc + Remote_client.bytes_received rc)

let test_netsim_charges_on_raise () =
  let net = Worm_proto.Netsim.create ~rtt_ns:1_000_000L () in
  let wrapped = Worm_proto.Netsim.wrap net (fun _ -> raise Boom) in
  (match wrapped "a request crossing the wire" with
  | _ -> Alcotest.fail "raising transport returned"
  | exception Boom -> ());
  (* regression: a raising transport used to charge nothing *)
  Alcotest.(check int) "request counted" 1 (Worm_proto.Netsim.requests net);
  Alcotest.(check int) "request bytes billed" (String.length "a request crossing the wire")
    (Worm_proto.Netsim.bytes_transferred net);
  Alcotest.(check bool) "RTT billed" true
    (Int64.compare (Worm_proto.Netsim.elapsed_ns net) 1_000_000L >= 0)

let test_duplicate_sns_in_reply_detected () =
  let env, _server, transport = remote_env () in
  let sn_a = write env ~blocks:[ "A" ] () in
  let sn_b = write env ~blocks:[ "B" ] () in
  (* a malicious reply answers sn_b twice: once honestly, then with a
     conflicting refusal appended — List.assoc reassembly would have
     trusted whichever came first *)
  let evil req =
    match Message.decode_request req with
    | Ok (Message.Read_many _) -> begin
        match Message.decode_response (transport req) with
        | Ok (Message.Read_many_reply replies) ->
            let dup = (sn_b, Proof.Refused "second opinion") in
            Message.encode_response (Message.Read_many_reply (replies @ [ dup ]))
        | _ -> transport req
      end
    | _ -> transport req
  in
  let rc = connect_exn ~retry:Remote_client.no_retry env evil in
  let results = Remote_client.audit_sweep rc ~lo:sn_a ~hi:sn_b in
  (match List.assoc sn_a results with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail ("clean row damaged: " ^ Client.verdict_name v));
  (match List.assoc sn_b results with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail ("duplicated SN trusted: " ^ Client.verdict_name v));
  (* with confirming re-reads, the honest per-record path heals the row *)
  let rc2 = connect_exn env evil in
  match List.assoc sn_b (Remote_client.audit_sweep rc2 ~lo:sn_a ~hi:sn_b) with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail ("re-read did not heal the duplicate: " ^ Client.verdict_name v)

(* ---------- network accounting ---------- *)

let test_batching_amortizes_round_trips () =
  let env, _server, transport = remote_env () in
  let sns = write_n env 20 in
  let lo = List.hd sns and hi = List.nth sns 19 in
  (* one-by-one *)
  let net1 = Worm_proto.Netsim.create ~rtt_ns:1_000_000L () in
  let rc1 = connect_exn env (Worm_proto.Netsim.wrap net1 transport) in
  List.iter (fun sn -> ignore (Remote_client.read rc1 sn)) sns;
  (* batched *)
  let net2 = Worm_proto.Netsim.create ~rtt_ns:1_000_000L () in
  let rc2 = connect_exn env (Worm_proto.Netsim.wrap net2 transport) in
  ignore (Remote_client.audit_sweep rc2 ~lo ~hi);
  Alcotest.(check int) "per-record: 21 round trips" 21 (Worm_proto.Netsim.requests net1);
  Alcotest.(check int) "batched: 2 round trips" 2 (Worm_proto.Netsim.requests net2);
  Alcotest.(check bool) "batching wins on wire time" true
    (Worm_proto.Netsim.elapsed_ns net2 < Worm_proto.Netsim.elapsed_ns net1);
  (* the payload bytes are about the same either way *)
  let b1 = Worm_proto.Netsim.bytes_transferred net1 and b2 = Worm_proto.Netsim.bytes_transferred net2 in
  Alcotest.(check bool) "similar byte volume" true (float_of_int b2 /. float_of_int b1 > 0.8)

let prop_request_codec_total =
  QCheck.Test.make ~name:"request decoder total on random bytes" ~count:300 QCheck.string (fun s ->
      match Message.decode_request s with
      | Ok _ | Error _ -> true)

let prop_response_codec_total =
  QCheck.Test.make ~name:"response decoder total on random bytes" ~count:300 QCheck.string (fun s ->
      match Message.decode_response s with
      | Ok _ | Error _ -> true)

(* ---------- encode-once memo ---------- *)

let decode_response_exn raw =
  match Message.decode_response raw with Ok r -> r | Error e -> Alcotest.fail e

(* The memo must be an optimization, never an oracle of its own: warm
   bytes must equal cold bytes, and once the store moves — a write
   advances the bound, a heartbeat re-signs it — the memoised encoding
   of the old artifact must never be served again. An attacker who could
   pin the server on a stale cached bound would shrink the audited
   region. *)
let test_encode_memo_identity_and_invalidation () =
  let env, server, transport = remote_env () in
  ignore (write_n env 3);
  let probe = Serial.of_int 4 (* one past the allocated region *) in
  let req = Message.encode_request (Message.Read probe) in
  let cold = transport req in
  let warm = transport req in
  Alcotest.(check string) "warm bytes = cold bytes" cold warm;
  let stale_bound =
    match decode_response_exn cold with
    | Message.Read_reply { response = Proof.Proof_unallocated b; _ } -> b
    | _ -> Alcotest.fail "expected an unallocated proof"
  in
  Alcotest.(check int64) "bound covers the 3 writes" 3L (Serial.to_int64 stale_bound.Firmware.sn);
  (* verifier agrees with the locally-served proof, through the memo *)
  (match decode_response_exn warm with
  | Message.Read_reply { sn; response } ->
      Alcotest.(check string) "verdict through memo"
        (Client.verdict_name (Client.verify_read env.client ~sn (Worm.read env.store probe)))
        (Client.verdict_name (Client.verify_read env.client ~sn response))
  | _ -> Alcotest.fail "expected a read reply");
  (* the attack: allocate [probe], then ask again — the reply must be
     the record, not the memoised absence proof *)
  let sn = write env ~blocks:[ "now it exists" ] () in
  Alcotest.(check int64) "probe got allocated" (Serial.to_int64 probe) (Serial.to_int64 sn);
  (match decode_response_exn (transport req) with
  | Message.Read_reply { sn; response = Proof.Found _ as response } -> begin
      match Client.verify_read env.client ~sn response with
      | Client.Valid_data { blocks; _ } ->
          Alcotest.(check (list string)) "served the new record" [ "now it exists" ] blocks
      | v -> Alcotest.fail ("served record does not verify: " ^ Client.verdict_name v)
    end
  | _ -> Alcotest.fail "stale absence proof served for an allocated serial");
  (* a re-signed bound (heartbeat after clock advance) must also flush
     the memo: the next unallocated proof carries the fresh signature *)
  let probe' = Serial.of_int 99 in
  let req' = Message.encode_request (Message.Read probe') in
  let b1 =
    match decode_response_exn (transport req') with
    | Message.Read_reply { response = Proof.Proof_unallocated b; _ } -> b
    | _ -> Alcotest.fail "expected an unallocated proof"
  in
  Clock.advance env.clock (Clock.ns_of_sec 3600.);
  Worm.heartbeat env.store;
  ignore server;
  let b2 =
    match decode_response_exn (transport req') with
    | Message.Read_reply { response = Proof.Proof_unallocated b; _ } -> b
    | _ -> Alcotest.fail "expected an unallocated proof"
  in
  Alcotest.(check bool) "re-signed bound is served, not the cached one" true
    (Int64.compare b2.Firmware.timestamp b1.Firmware.timestamp > 0)

(* ---------- write path: refresh only where a bound is served ---------- *)

let ask transport request = decode_response_exn (transport (Message.encode_request request))
let long_policy () = short_policy ~retention_s:10_000. ()

let wire_write transport blocks =
  match ask transport (Message.Write { policy = long_policy (); tenant = ""; blocks }) with
  | Message.Write_ack { sn } -> sn
  | r -> Alcotest.fail (Message.describe_response r)

(* A wire write signs its own metasig and datasig in one SCPU call and
   nothing else: the bound it leaves stale is not re-signed until a
   request that serves it arrives. *)
let test_strong_wire_write_signs_twice () =
  let env, _server, transport = remote_env () in
  ignore (ask transport (Message.Read Serial.first));
  for i = 1 to 3 do
    let before = Device.stats env.device in
    ignore (wire_write transport [ Printf.sprintf "w%d" i ]);
    let after = Device.stats env.device in
    Alcotest.(check int) "two strong signatures" 2 (after.Device.strong_signs - before.Device.strong_signs);
    Alcotest.(check int) "one sign call" 1 (after.Device.sign_calls - before.Device.sign_calls)
  done

(* The first bound-carrying request after a burst heals the staleness:
   an audit walk covers every serial of the burst, and the serial past
   it is provably never written. *)
let test_write_burst_then_audit () =
  let env, _server, transport = remote_env () in
  let rc = connect_exn env transport in
  let k = 5 in
  let burst tag = List.init k (fun i -> wire_write transport [ Printf.sprintf "%s-%d" tag i ]) in
  let sns = burst "first" in
  let top = Firmware.sn_current (Worm.firmware env.store) in
  (match ask transport (Message.Audit_slice { cursor = Serial.first; max = 64 }) with
  | Message.Audit_slice_reply { replies; next; current; _ } ->
      Alcotest.(check (list int)) "slice covers the burst" (List.map Serial.to_int sns)
        (List.map (fun (sn, _) -> Serial.to_int sn) replies);
      Alcotest.(check bool) "walk complete" true (next = None);
      Alcotest.(check int) "served bound is sn_current" (Serial.to_int top) (Serial.to_int current.Firmware.sn)
  | r -> Alcotest.fail (Message.describe_response r));
  ignore (burst "second");
  let audit = Remote_client.run_remote_audit_to_completion rc in
  Alcotest.(check int) "remote audit covers both bursts" (2 * k) audit.Remote_client.scanned;
  Alcotest.(check int) "remote audit clean" 0 (List.length audit.Remote_client.violations);
  Alcotest.(check bool) "remote audit complete" true (audit.Remote_client.resume = None);
  ignore (burst "third");
  let past = Serial.next (Firmware.sn_current (Worm.firmware env.store)) in
  match Remote_client.read rc past with
  | Client.Never_written -> ()
  | v -> Alcotest.fail ("sn_current + 1: " ^ Client.verdict_name v)

type step = Req of Message.request | Advance of float | Expire

(* Two stores from one seed, one served by [handle_bytes] as it is, the
   other with an explicit [Server.refresh] before every request (the
   former per-request rule). Every reply, bound-carrying or not, must be
   byte-identical. *)
let test_lazy_refresh_serves_identical_bytes () =
  let twin () =
    let env = fresh_env ~seed:"lazy-refresh-twin" () in
    (env, Server.create env.store)
  in
  let (env_l, lazy_), (env_e, eager) = (twin (), twin ()) in
  let both f = f env_l; f env_e in
  let brief = short_policy ~retention_s:100. () in
  let w ?(tenant = "") ?(policy = long_policy ()) b = Req (Message.Write { policy; tenant; blocks = [ b ] }) in
  let read i = Req (Message.Read (Serial.of_int i)) in
  let read_many lo hi = Req (Message.Read_many (List.init (hi - lo + 1) (fun i -> Serial.of_int (lo + i)))) in
  let slice max = Req (Message.Audit_slice { cursor = Serial.first; max }) in
  let script =
    [ Req Message.Hello; w ~policy:brief "a"; w ~policy:brief "b"; w "c"; read 4; read 2; Advance 30.;
      w ~policy:brief "d"; w ~tenant:"acme" "e"; Advance 45.; read_many 1 6; slice 64; w "f"; w "g"; slice 3;
      Advance 200.; Expire; w "h"; read 4; read_many 1 10; w "i"; w ~tenant:"acme" "j"; slice 64; read 12 ]
  in
  List.iter
    (function
      | Advance s -> both (fun env -> Clock.advance env.clock (Clock.ns_of_sec s))
      | Expire -> both (fun env -> ignore (Worm.expire_due env.store); ignore (Worm.compact_windows env.store))
      | Req request ->
          let bytes = Message.encode_request request in
          let l = Server.handle_bytes lazy_ bytes in
          Server.refresh eager;
          let e = Server.handle_bytes eager bytes in
          Alcotest.(check string) ("same bytes: " ^ Message.describe_request request) e l)
    script;
  Alcotest.(check bool) "fewer bound signatures" true
    ((Device.stats env_l.device).Device.strong_signs < (Device.stats env_e.device).Device.strong_signs)

let suite =
  [
    ("request codec", `Quick, test_request_codec);
    ("response codec, all proof shapes", `Quick, test_response_codec_all_proof_shapes);
    ("verdict survives serialization", `Quick, test_verdict_survives_serialization);
    ("audit-slice reply codec", `Quick, test_audit_slice_reply_codec);
    ("handshake and read", `Quick, test_handshake_and_read);
    ("audit sweep", `Quick, test_audit_sweep);
    ("remote full audit, honest server", `Quick, test_remote_full_audit_honest);
    ("remote audit catches refusing dispatcher", `Quick, test_remote_audit_catches_refusing_dispatcher);
    ("refused slices heal by per-record fallback", `Quick, test_refused_slices_heal_by_record_fallback);
    ("raising transport never escapes", `Quick, test_raising_transport_never_escapes);
    ("transient fault retried", `Quick, test_transient_fault_retried);
    ("handshake bytes accounted", `Quick, test_handshake_bytes_accounted);
    ("netsim charges on raise", `Quick, test_netsim_charges_on_raise);
    ("duplicate SNs in reply detected", `Quick, test_duplicate_sns_in_reply_detected);
    ("remote audit catches stalling cursor", `Quick, test_remote_audit_catches_stalling_cursor);
    ("wrong CA over the wire", `Quick, test_handshake_against_wrong_ca);
    ("MITM bitflip detected", `Quick, test_mitm_bitflip_detected);
    ("MITM substitution detected", `Quick, test_mitm_response_substitution_detected);
    ("MITM garbage/drop yields no proof", `Quick, test_mitm_garbage_and_drop);
    ("batching amortizes round trips", `Quick, test_batching_amortizes_round_trips);
    ("encode memo: identity and invalidation", `Quick, test_encode_memo_identity_and_invalidation);
    ("strong wire write signs twice", `Quick, test_strong_wire_write_signs_twice);
    ("write burst then audit", `Quick, test_write_burst_then_audit);
    ("lazy refresh serves identical bytes", `Quick, test_lazy_refresh_serves_identical_bytes);
    QCheck_alcotest.to_alcotest prop_request_codec_total;
    QCheck_alcotest.to_alcotest prop_response_codec_total;
  ]

let () = Alcotest.run "worm_proto" [ ("proto", suite) ]

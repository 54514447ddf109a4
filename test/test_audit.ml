(* The continuous compliance-audit subsystem: a clean scrub of a fully
   populated store reports nothing; each single-fault injection through
   the insider interfaces yields exactly the matching finding class;
   repair restores a clean report; and the cursor checkpoint resumes a
   killed scrub to the same findings as an uninterrupted one. *)

open Worm_core
open Worm_testkit.Testkit
module Clock = Worm_simclock.Clock
module Scrubber = Worm_audit.Scrubber
module Finding = Worm_audit.Finding
module Report = Worm_audit.Report

let scrubber ?config env = Scrubber.create ?config ~store:env.store ~client:env.client ()

let flip_byte i s =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

let flip_datasig env sn =
  match Vrdt.find (Worm.vrdt env.store) sn with
  | Some (Vrdt.Active vrd) ->
      let datasig =
        match vrd.Vrd.datasig with
        | Witness.Strong s -> Witness.Strong (flip_byte 3 s)
        | Witness.Weak { cert; signature } -> Witness.Weak { cert; signature = flip_byte 3 signature }
        | Witness.Mac m -> Witness.Mac (flip_byte 3 m)
      in
      Vrdt.Raw.put (Worm.vrdt env.store) sn (Vrdt.Active { vrd with Vrd.datasig })
  | _ -> Alcotest.fail "record to damage is not live"

let cls_names (r : Report.t) = List.map (fun f -> Finding.cls_name f.Finding.cls) r.Report.findings

let record_finding (r : Report.t) sn =
  match List.find_opt (fun f -> f.Finding.subject = Finding.Record sn) r.Report.findings with
  | Some f -> f
  | None -> Alcotest.failf "no finding for %s" (Serial.to_string sn)

(* ---------- the honest store ---------- *)

let test_clean_scrub_populated_store () =
  (* Every proof shape at once: live records, per-SN deletion proofs
     collapsed into a window, a litigation hold, a journal with SCPU
     anchors, a multi-block record with a full 4 KB block. The scrub
     must cover the full SN space and stay silent. *)
  let config = { Worm.default_config with Worm.journal = true } in
  let env = fresh_env ~config () in
  let long = short_policy ~retention_s:10_000. () in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "anchor" ]);
  ignore (Worm.write env.store ~policy:long ~blocks:[ String.init 4096 (fun i -> Char.chr (i * 31 land 0xff)); "k" ]);
  ignore (write_n env ~retention_s:10. 6);
  let held = Worm.write env.store ~policy:long ~blocks:[ "under hold" ] in
  let authority = fresh_authority env in
  (match
     Authority.place_hold authority ~store:env.store ~sn:held ~lit_id:"case-7"
       ~timeout:(Int64.add (Clock.now env.clock) (Clock.ns_of_sec 7200.))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "hold failed: %s" (Firmware.error_to_string e));
  ignore (expire_all env ~after_s:20.);
  Worm.idle_tick env.store;
  ignore (Worm.compact_windows env.store);
  Alcotest.(check bool) "fixture has a window" true (Worm.deletion_windows env.store <> []);
  let report = Scrubber.run_pass (scrubber env) in
  Alcotest.(check (list string)) "no findings" [] (cls_names report);
  Alcotest.(check bool) "clean" true (Report.clean report);
  Alcotest.(check int) "full SN coverage" 9 report.Report.records_scanned

(* ---------- single-fault injections ---------- *)

let test_flipped_datasig_flagged () =
  let env = fresh_env () in
  let sns = write_n env ~retention_s:10_000. 3 in
  let victim = List.nth sns 1 in
  flip_datasig env victim;
  let report = Scrubber.run_pass (scrubber env) in
  Alcotest.(check (list string)) "exactly one bad-signature" [ "bad-signature" ] (cls_names report);
  Alcotest.(check bool) "names the record" true
    ((record_finding report victim).Finding.subject = Finding.Record victim)

let test_dropped_deletion_proof_flagged () =
  let env = fresh_env () in
  let long = short_policy ~retention_s:10_000. () in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "anchor" ]);
  let doomed = write env ~policy:(short_policy ~retention_s:10. ()) () in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "keeper" ]);
  ignore (expire_all env ~after_s:20.);
  (* the host "loses" the S_d(SN) it was entrusted with *)
  Vrdt.Raw.remove (Worm.vrdt env.store) doomed;
  let report = Scrubber.run_pass (scrubber env) in
  Alcotest.(check (list string)) "exactly one missing-proof" [ "missing-proof" ] (cls_names report);
  ignore (record_finding report doomed)

let test_torn_window_flagged () =
  let env = fresh_env () in
  let long = short_policy ~retention_s:10_000. () in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "anchor" ]);
  ignore (write_n env ~retention_s:10. 4);
  ignore (Worm.write env.store ~policy:long ~blocks:[ "keeper" ]);
  ignore (expire_all env ~after_s:20.);
  ignore (Worm.compact_windows env.store);
  (match Worm.deletion_windows env.store with
  | [ w ] ->
      Worm.Raw.set_windows env.store [ { w with Firmware.sig_hi = flip_byte 3 w.Firmware.sig_hi } ]
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws));
  let report = Scrubber.run_pass (scrubber env) in
  Alcotest.(check bool) "found something" true (report.Report.findings <> []);
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check string) "every finding is torn-window" "torn-window" (Finding.cls_name f.Finding.cls))
    report.Report.findings;
  Alcotest.(check bool) "the window itself is named" true
    (List.exists
       (fun (f : Finding.t) ->
         match f.Finding.subject with
         | Finding.Window _ -> true
         | _ -> false)
       report.Report.findings)

let test_stale_bound_flagged_and_repaired () =
  let env = fresh_env () in
  ignore (write_n env ~retention_s:10_000. 2);
  Worm.heartbeat env.store;
  (* The read path would refresh the bound on its own; the scrubber must
     notice that nobody has, via the non-refreshing peek. *)
  Clock.advance env.clock (Clock.ns_of_sec 400.);
  let s = scrubber env in
  let report = Scrubber.run_pass s in
  Alcotest.(check (list string)) "exactly one stale-bound" [ "stale-bound" ] (cls_names report);
  (* the repair is a heartbeat; no mirror needed *)
  List.iter
    (fun (o : Scrubber.repair_outcome) ->
      Alcotest.(check string) "repair action" "heartbeat" o.Scrubber.action;
      match o.Scrubber.result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "heartbeat repair failed: %s" e)
    (Scrubber.repair_all s);
  Alcotest.(check bool) "clean after repair" true (Report.clean (Scrubber.run_pass s))

(* ---------- repair from the mirror ---------- *)

let test_repair_from_mirror () =
  let p = fresh_env () in
  let m = fresh_env () in
  let r = Replicator.create ~primary:p.store ~mirror:m.store in
  let wr retention_s blocks = fst (Replicator.write r ~policy:(short_policy ~retention_s ()) ~blocks) in
  ignore (wr 10_000. [ "anchor" ]);
  let doomed = wr 10. [ "doomed" ] in
  let forged = wr 10_000. [ "forged witness" ] in
  let damaged = wr 10_000. [ "damaged data" ] in
  Clock.advance p.clock (Clock.ns_of_sec 20.);
  ignore (Worm.expire_due p.store);
  (* three faults: lost deletion proof, flipped datasig, flipped data *)
  Vrdt.Raw.remove (Worm.vrdt p.store) doomed;
  flip_datasig p forged;
  let mallory = Adversary.create p.store in
  Alcotest.(check bool) "data damaged" true (Adversary.tamper_record_data mallory damaged);
  let s = scrubber p in
  let before = Scrubber.run_pass s in
  Alcotest.(check int) "three findings" 3 (List.length before.Report.findings);
  Scrubber.attach_mirror s r;
  List.iter
    (fun (o : Scrubber.repair_outcome) ->
      match o.Scrubber.result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "repair '%s' failed: %s" o.Scrubber.action e)
    (Scrubber.repair_all s);
  (* repairs re-queue SCPU data audits; let idle maintenance run them *)
  Worm.idle_tick p.store;
  let after = Scrubber.run_pass s in
  Alcotest.(check (list string)) "clean after repair" [] (cls_names after);
  Alcotest.(check bool) "clean report" true (Report.clean after);
  check_verdict "healed witness verifies" "valid-data" p forged;
  check_verdict "healed data verifies" "valid-data" p damaged;
  check_verdict "re-issued proof verifies" "properly-deleted" p doomed

let test_repair_without_mirror_fails_closed () =
  let env = fresh_env () in
  let sns = write_n env ~retention_s:10_000. 2 in
  flip_datasig env (List.hd sns);
  let s = scrubber env in
  ignore (Scrubber.run_pass s);
  match Scrubber.repair_all s with
  | [ { Scrubber.result = Error _; _ } ] -> ()
  | [ { Scrubber.result = Ok (); _ } ] -> Alcotest.fail "mirror-less repair claimed success"
  | os -> Alcotest.failf "expected one outcome, got %d" (List.length os)

(* ---------- checkpoint / resume ---------- *)

let test_checkpoint_resume_same_findings () =
  let env = fresh_env () in
  let sns = write_n env ~retention_s:10_000. 8 in
  flip_datasig env (List.nth sns 4);
  let config = { Scrubber.default_config with Scrubber.max_records_per_slice = 2 } in
  (* reference: one uninterrupted pass *)
  let expected = Scrubber.run_pass (scrubber ~config env) in
  (* interrupted: two slices, checkpoint, "host restart", resume *)
  let a = scrubber ~config env in
  ignore (Scrubber.run_slice a);
  ignore (Scrubber.run_slice a);
  let blob = Scrubber.save_state a in
  let b = scrubber ~config env in
  (match Scrubber.load_state b blob with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int64) "cursor resumes where the kill hit"
    (Serial.to_int64 (Scrubber.cursor a))
    (Serial.to_int64 (Scrubber.cursor b));
  let resumed = Scrubber.run_pass b in
  Alcotest.(check int) "same coverage" expected.Report.records_scanned resumed.Report.records_scanned;
  Alcotest.(check int) "same finding count" (List.length expected.Report.findings)
    (List.length resumed.Report.findings);
  List.iter2
    (fun x y -> Alcotest.(check bool) "identical finding" true (Finding.equal x y))
    expected.Report.findings resumed.Report.findings

let test_checkpoint_roundtrip_mid_pass_is_stable () =
  let env = fresh_env () in
  ignore (write_n env ~retention_s:10_000. 5);
  let config = { Scrubber.default_config with Scrubber.max_records_per_slice = 2 } in
  let a = scrubber ~config env in
  ignore (Scrubber.run_slice a);
  let blob = Scrubber.save_state a in
  let b = scrubber ~config env in
  (match Scrubber.load_state b blob with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "re-saving reproduces the checkpoint" blob (Scrubber.save_state b)

(* ---------- cost discipline ---------- *)

let test_slice_respects_record_cap () =
  let env = fresh_env () in
  ignore (write_n env ~retention_s:10_000. 9);
  let config = { Scrubber.default_config with Scrubber.max_records_per_slice = 4 } in
  let s = scrubber ~config env in
  let rec drive acc =
    let stats = Scrubber.run_slice s in
    Alcotest.(check bool) "cap respected" true (stats.Scrubber.examined <= 4);
    if stats.Scrubber.pass_completed then stats.Scrubber.examined + acc
    else drive (stats.Scrubber.examined + acc)
  in
  let total = drive 0 in
  Alcotest.(check int) "every SN examined exactly once" 9 total;
  match Scrubber.last_report s with
  | Some r -> Alcotest.(check int) "three slices" 3 r.Report.slices
  | None -> Alcotest.fail "no report"

let test_slice_respects_time_budget () =
  let env = fresh_env () in
  ignore (write_n env ~retention_s:10_000. 5);
  (* a 1 ns budget still makes progress — exactly one record per slice,
     overshooting the budget by at most that record's cost *)
  let config = { Scrubber.default_config with Scrubber.slice_budget_ns = 1L } in
  let s = scrubber ~config env in
  let stats = Scrubber.run_slice s in
  Alcotest.(check int) "one record per starved slice" 1 stats.Scrubber.examined;
  let report = Scrubber.run_pass s in
  Alcotest.(check int) "pass still terminates with full coverage" 5 report.Report.records_scanned;
  Alcotest.(check bool) "one slice per record (plus the finalizer)" true (report.Report.slices >= 5)

let suite =
  [
    ("clean scrub of a populated store", `Quick, test_clean_scrub_populated_store);
    ("flipped datasig -> bad-signature", `Quick, test_flipped_datasig_flagged);
    ("dropped deletion proof -> missing-proof", `Quick, test_dropped_deletion_proof_flagged);
    ("torn window -> torn-window", `Quick, test_torn_window_flagged);
    ("stale bound -> stale-bound, heartbeat repairs", `Quick, test_stale_bound_flagged_and_repaired);
    ("repair from mirror restores a clean report", `Quick, test_repair_from_mirror);
    ("mirror-less repair fails closed", `Quick, test_repair_without_mirror_fails_closed);
    ("killed scrub resumes to identical findings", `Quick, test_checkpoint_resume_same_findings);
    ("checkpoint roundtrip is stable", `Quick, test_checkpoint_roundtrip_mid_pass_is_stable);
    ("slice respects the record cap", `Quick, test_slice_respects_record_cap);
    ("slice respects the time budget", `Quick, test_slice_respects_time_budget);
  ]

let () = Alcotest.run "worm_audit" [ ("audit", suite) ]

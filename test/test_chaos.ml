(* The chaos engine's own guarantees: descriptors are an exact one-line
   serialization of a run, generated scenarios execute green and
   deterministically (the replay property CI relies on), the shrinker
   produces a smaller descriptor that still fails, and corpus entries
   round-trip through the filesystem. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Descriptors ----------------------------------------------------------- *)

let test_generate_valid () =
  for seed = 1 to 50 do
    let d = Chaos.Descriptor.generate ~seed in
    (match Chaos.Descriptor.validate d with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: invalid descriptor: %s" seed e);
    checki "engine seed is the descriptor seed" seed d.Chaos.Descriptor.seed
  done

let test_roundtrip_generated () =
  for seed = 1 to 200 do
    let d = Chaos.Descriptor.generate ~seed in
    let line = Chaos.Descriptor.to_string d in
    match Chaos.Descriptor.of_string line with
    | Ok d' ->
        if not (Chaos.Descriptor.equal d d') then
          Alcotest.failf "seed %d: roundtrip changed descriptor: %s" seed line
    | Error e -> Alcotest.failf "seed %d: reparse failed: %s (%s)" seed e line
  done

let test_parse_errors () =
  let bad =
    [
      "";
      "chaos2 seed=1 peers=1 hosts=3 ppfx=1 spfx=1 churn=0 delay=1 window=1 settle=1 faults=-";
      "chaos1 peers=1 hosts=3 ppfx=1 spfx=1 churn=0 delay=1 window=1 settle=1 faults=-";
      "chaos1 seed=1 peers=0 hosts=3 ppfx=1 spfx=1 churn=0 delay=1 window=1000 settle=1 faults=-";
      "chaos1 seed=1 peers=1 hosts=3 ppfx=1 spfx=1 churn=0 delay=1 window=1000 settle=1 faults=zap@3";
      (* vrf index out of range for peers=1 *)
      "chaos1 seed=1 peers=1 hosts=3 ppfx=1 spfx=1 churn=0 delay=1 window=1000 settle=1 faults=rst.1@3";
      (* fault beyond the window *)
      "chaos1 seed=1 peers=1 hosts=3 ppfx=1 spfx=1 churn=0 delay=1 window=1000 settle=1 faults=planned@5000";
    ]
  in
  List.iter
    (fun line ->
      match Chaos.Descriptor.of_string line with
      | Ok _ -> Alcotest.failf "accepted bad descriptor: %S" line
      | Error _ -> ())
    bad

let test_sub_seed_spread () =
  (* The campaign derivation must give distinct, order-independent
     sub-seeds: a failure reported as (campaign, index) has to replay in
     isolation. *)
  let seen = Hashtbl.create 64
  and campaign = 42 in
  for i = 0 to 499 do
    let s = Chaos.Descriptor.sub_seed ~seed:campaign i in
    if Hashtbl.mem seen s then Alcotest.failf "sub_seed collision at %d" i;
    Hashtbl.add seen s ()
  done;
  checki "sub_seed is stateless"
    (Chaos.Descriptor.sub_seed ~seed:campaign 7)
    (Chaos.Descriptor.sub_seed ~seed:campaign 7)

let test_applicability_matrix () =
  let parse line = Result.get_ok (Chaos.Descriptor.of_string line) in
  let base =
    "chaos1 seed=1 peers=2 hosts=3 ppfx=5 spfx=5 churn=0 delay=500 window=9000 settle=20000 faults="
  in
  checkb "clean schedule disables nothing" true
    (Chaos.Runner.disabled_checkers (parse (base ^ "-")) = []);
  let rst = Chaos.Runner.disabled_checkers (parse (base ^ "rst.0@100")) in
  checkb "rst disables reset checker" true
    (List.mem "no_peer_visible_reset" rst);
  checkb "rst keeps flap checker" false (List.mem "route_flap_absence" rst);
  checkb "rst disables degraded-exclusion checker" true
    (List.mem "degraded_mode_exclusion" rst);
  let cease = Chaos.Runner.disabled_checkers (parse (base ^ "cease.1@100")) in
  checkb "cease disables reset checker" true
    (List.mem "no_peer_visible_reset" cease);
  checkb "cease disables flap checker" true
    (List.mem "route_flap_absence" cease);
  checkb "cease disables degraded-exclusion checker" true
    (List.mem "degraded_mode_exclusion" cease);
  List.iter
    (fun tok ->
      checkb (tok ^ " disables nothing") true
        (Chaos.Runner.disabled_checkers (parse (base ^ tok)) = []))
    [ "store_crash@2000"; "store_crash@2000+6000"; "store_partition@2000+6000";
      "store_slow@2000+4000:300" ]

(* --- Store-fault tokens ----------------------------------------------------- *)

let test_store_fault_tokens () =
  let base =
    "chaos1 seed=1 peers=2 hosts=3 ppfx=5 spfx=5 churn=0 delay=500 window=9000 settle=20000 faults="
  in
  let roundtrip tok expected =
    match Chaos.Descriptor.of_string (base ^ tok) with
    | Error e -> Alcotest.failf "%s rejected: %s" tok e
    | Ok d -> (
        (match Chaos.Descriptor.validate d with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s invalid: %s" tok e);
        checkb (tok ^ " serializes back") true
          (String.length (Chaos.Descriptor.to_string d) > 0
          && Chaos.Descriptor.of_string (Chaos.Descriptor.to_string d)
             = Ok d);
        match d.Chaos.Descriptor.faults with
        | [ f ] -> checkb (tok ^ " parses to expected fault") true (f = expected)
        | _ -> Alcotest.failf "%s: expected one fault" tok)
  in
  roundtrip "store_crash@2000"
    (Chaos.Descriptor.Store_crash { at_ms = 2000; dur_ms = 0 });
  roundtrip "store_crash@2000+6000"
    (Chaos.Descriptor.Store_crash { at_ms = 2000; dur_ms = 6000 });
  roundtrip "store_partition@2000+6000"
    (Chaos.Descriptor.Store_partition { at_ms = 2000; dur_ms = 6000 });
  roundtrip "store_slow@2000+4000:300"
    (Chaos.Descriptor.Store_slow
       { at_ms = 2000; dur_ms = 4000; factor_pct = 300 });
  List.iter
    (fun tok ->
      match Chaos.Descriptor.of_string (base ^ tok) with
      | Ok _ -> Alcotest.failf "accepted bad store token: %s" tok
      | Error _ -> ())
    [
      "store_partition@2000" (* a partition needs a heal time *);
      "store_partition@2000+0";
      "store_slow@2000+4000" (* slowdown needs a factor *);
      "store_slow@2000+4000:100" (* factor must exceed 1x *);
      "store_slow@2000+4000:20000" (* absurd factor rejected *);
      "store_crash@2000+-5";
    ]

let test_validate_rejects_kill_inside_outage () =
  let base =
    "chaos1 seed=1 peers=2 hosts=3 ppfx=5 spfx=5 churn=0 delay=500 window=9000 settle=20000 faults="
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let reject tok =
    match Chaos.Descriptor.of_string (base ^ tok) with
    | Ok _ -> Alcotest.failf "accepted kill inside store outage: %s" tok
    | Error e -> checkb (tok ^ " names the outage") true (contains e "outage")
  in
  (* Inside a bounded outage, and any time after a permanent crash. *)
  reject "store_crash@2000+8000,kill.app@4000";
  reject "store_crash@2000,kill.app@7000";
  reject "store_partition@2000+6000,planned@3000";
  (* Before or after the outage window is fine. *)
  match
    Chaos.Descriptor.of_string (base ^ "store_partition@3000+2000,kill.app@800")
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "kill before the outage rejected: %s" e

(* --- Fleet tokens ------------------------------------------------------------ *)

let test_fleet_tokens_roundtrip () =
  let base =
    "chaos1 seed=1 peers=2 hosts=3 ppfx=5 spfx=5 churn=0 delay=500 window=30000 settle=20000 faults="
  in
  let roundtrip tok expected =
    match Chaos.Descriptor.of_string (base ^ tok) with
    | Error e -> Alcotest.failf "%s rejected: %s" tok e
    | Ok d -> (
        checkb (tok ^ " serializes back") true
          (Chaos.Descriptor.of_string (Chaos.Descriptor.to_string d) = Ok d);
        match d.Chaos.Descriptor.faults with
        | [ f ] -> checkb (tok ^ " parses to expected fault") true (f = expected)
        | _ -> Alcotest.failf "%s: expected one fault" tok)
  in
  roundtrip "host_kill@5000" (Chaos.Descriptor.Host_kill { at_ms = 5000 });
  roundtrip "region_store_outage@5000+8000"
    (Chaos.Descriptor.Region_store_outage { at_ms = 5000; dur_ms = 8000 });
  roundtrip "rolling_upgrade@5000:4"
    (Chaos.Descriptor.Rolling_upgrade { at_ms = 5000; bound = 4 });
  List.iter
    (fun tok ->
      match Chaos.Descriptor.of_string (base ^ tok) with
      | Ok _ -> Alcotest.failf "accepted bad fleet token: %s" tok
      | Error _ -> ())
    [
      "region_store_outage@5000" (* an outage needs a heal time *);
      "region_store_outage@5000+0";
      "rolling_upgrade@5000" (* a wave needs its concurrency bound *);
      "rolling_upgrade@5000:0";
      "rolling_upgrade@5000:65" (* bound capped at 64 *);
    ]

let test_fleet_wave_conflicts_rejected () =
  let base =
    "chaos1 seed=1 peers=2 hosts=3 ppfx=5 spfx=5 churn=0 delay=500 window=30000 settle=20000 faults="
  in
  let reject why tok =
    match Chaos.Descriptor.of_string (base ^ tok) with
    | Ok _ -> Alcotest.failf "accepted %s: %s" why tok
    | Error _ -> ()
  in
  (* A wave owns the fleet until its schedule-dependent completion: two
     waves in one schedule always overlap. *)
  reject "overlapping waves" "rolling_upgrade@2000:2,rolling_upgrade@20000:2";
  (* The store is the recovery substrate: no correlated kill or wave may
     start while a store outage window is open. *)
  reject "host_kill inside region outage"
    "region_store_outage@2000+8000,host_kill@4000";
  reject "wave inside region outage"
    "region_store_outage@2000+8000,rolling_upgrade@4000:2";
  reject "host_kill inside plain store outage"
    "store_partition@2000+6000,host_kill@4000";
  (* Outside the window the same combinations are fine. *)
  List.iter
    (fun tok ->
      match Chaos.Descriptor.of_string (base ^ tok) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rejected valid schedule %s: %s" tok e)
    [
      "host_kill@1000,region_store_outage@12000+5000";
      "host_kill@1000,rolling_upgrade@9000:2";
    ]

let test_bare_fault_list_parser () =
  (match Chaos.Descriptor.faults_of_string "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty string is the empty schedule");
  (match Chaos.Descriptor.faults_of_string "-" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "\"-\" is the empty schedule");
  (match
     Chaos.Descriptor.faults_of_string "host_kill@5000,rolling_upgrade@9000:2"
   with
  | Ok [ Chaos.Descriptor.Host_kill _; Chaos.Descriptor.Rolling_upgrade _ ] ->
      ()
  | Ok _ -> Alcotest.fail "wrong faults parsed"
  | Error e -> Alcotest.failf "valid list rejected: %s" e);
  (* The bare list obeys the same structural rules as a descriptor. *)
  match
    Chaos.Descriptor.faults_of_string
      "region_store_outage@2000+8000,host_kill@4000"
  with
  | Ok _ -> Alcotest.fail "bare list skipped outage-conflict validation"
  | Error _ -> ()

let test_pre_store_descriptors_still_parse () =
  (* Descriptor lines written before the store-fault tokens existed must
     keep parsing unchanged — the committed corpus depends on it. *)
  let old_lines =
    [
      "chaos1 seed=5 peers=2 hosts=3 ppfx=8 spfx=8 churn=1 delay=500 \
       window=16000 settle=20000 \
       faults=flap.1@1000+80,kill.app@4000,loss.1@9000+400:20";
      "chaos1 seed=9 peers=1 hosts=3 ppfx=5 spfx=5 churn=0 delay=500 \
       window=9000 settle=20000 faults=-";
      "chaos1 seed=3 peers=2 hosts=4 ppfx=6 spfx=6 churn=2 delay=800 \
       window=12000 settle=20000 faults=rst.0@2000,bfd.1@5000x300";
    ]
  in
  List.iter
    (fun line ->
      match Chaos.Descriptor.of_string line with
      | Ok d -> (
          match Chaos.Descriptor.validate d with
          | Ok () -> ()
          | Error e -> Alcotest.failf "pre-store line now invalid: %s (%s)" e line)
      | Error e -> Alcotest.failf "pre-store line rejected: %s (%s)" e line)
    old_lines

let test_store_fault_runs_green () =
  (* Seeds whose generated schedules carry store faults, including ones
     that push the replicator into degraded mode and back (found by
     scanning; the generator draws store faults for ~a third of seeds). *)
  List.iter
    (fun seed ->
      let d = Chaos.Descriptor.generate ~seed in
      checkb
        (Printf.sprintf "seed %d generates a store fault" seed)
        true
        (List.exists
           (function
             | Chaos.Descriptor.Store_crash _ | Chaos.Descriptor.Store_partition _
             | Chaos.Descriptor.Store_slow _ ->
                 true
             | _ -> false)
           d.Chaos.Descriptor.faults);
      let o = Chaos.Runner.run d in
      if not (Chaos.Runner.ok o) then
        Alcotest.failf "store-fault seed %d not green: %s" seed
          (Chaos.Runner.summary o))
    [ 28; 35; 38 ]

(* --- Replay determinism (the property CI's corpus gate relies on) ---------- *)

let prop_replay_deterministic =
  QCheck.Test.make ~name:"two runs of one descriptor give equal digests"
    ~count:8
    QCheck.(int_bound 100_000)
    (fun seed ->
      let d = Chaos.Descriptor.generate ~seed:(seed + 1) in
      let o1 = Chaos.Runner.run d in
      let o2 = Chaos.Runner.run d in
      String.equal o1.Chaos.Runner.digest o2.Chaos.Runner.digest
      && o1.Chaos.Runner.events = o2.Chaos.Runner.events)

let test_generated_runs_green () =
  for seed = 1 to 10 do
    let o = Chaos.Runner.run (Chaos.Descriptor.generate ~seed) in
    if not (Chaos.Runner.ok o) then
      Alcotest.failf "seed %d not green: %s" seed (Chaos.Runner.summary o)
  done

(* --- Shrinking ------------------------------------------------------------- *)

(* A seeded product fault (promoting without fencing) makes any
   app-failure migration fail the single-primary checker, so the
   shrinker has a real, reproducible failure to minimize — and its
   minimum must keep exactly the one fault that forces the unfenced
   migration. *)
let test_shrink_minimizes () =
  Monitor.Faults.with_fault Monitor.Faults.no_fence (fun () ->
      let d =
        Result.get_ok
          (Chaos.Descriptor.of_string
             "chaos1 seed=5 peers=2 hosts=3 ppfx=8 spfx=8 churn=1 delay=500 \
              window=16000 settle=20000 \
              faults=flap.1@1000+80,kill.app@4000,loss.1@9000+400:20")
      in
      match Chaos.Shrink.minimize ~max_runs:40 d with
      | None -> Alcotest.fail "descriptor did not fail under no_fence"
      | Some r ->
          checkb "minimal still fails" false (Chaos.Runner.ok r.outcome);
          let m = r.minimal in
          checkb "fault schedule shrank to the kill" true
            (match m.Chaos.Descriptor.faults with
            | [ Chaos.Descriptor.Kill _ ] -> true
            | _ -> false);
          checkb "workload reduced" true
            (m.Chaos.Descriptor.peers <= 2
            && m.Chaos.Descriptor.churn = 0
            && m.Chaos.Descriptor.peer_prefixes <= 8);
          checkb "run budget respected" true (r.runs_used <= 40))

(* --- Corpus ---------------------------------------------------------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chaos-corpus-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun e -> Sys.remove (Filename.concat dir e))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_corpus_roundtrip () =
  with_temp_dir (fun dir ->
      let d1 = Chaos.Descriptor.generate ~seed:11 in
      let d2 = Chaos.Descriptor.generate ~seed:12 in
      let p1 = Chaos.Corpus.save ~dir ~comment:"first\nsecond line" d1 in
      let _p2 = Chaos.Corpus.save ~dir d2 in
      (match Chaos.Corpus.load_file p1 with
      | Ok d -> checkb "comment lines skipped" true (Chaos.Descriptor.equal d d1)
      | Error e -> Alcotest.failf "load_file: %s" e);
      let entries = Chaos.Corpus.load_dir dir in
      checki "both entries listed" 2 (List.length entries);
      List.iter
        (fun (name, parsed) ->
          checkb "chaos extension" true
            (Filename.check_suffix name Chaos.Corpus.entry_extension);
          match parsed with
          | Ok d ->
              checkb "entry parses to a saved descriptor" true
                (Chaos.Descriptor.equal d d1 || Chaos.Descriptor.equal d d2)
          | Error e -> Alcotest.failf "corpus entry %s: %s" name e)
        entries)

let test_corpus_missing_dir () =
  checki "missing dir is empty corpus" 0
    (List.length (Chaos.Corpus.load_dir "/nonexistent/chaos-corpus"))

(* Pinned telemetry digests for every committed corpus entry. These
   change ONLY when event emission genuinely changes; in particular the
   sorted-key table folds feeding digests/snapshots must keep them
   byte-identical. Update deliberately, never to silence a failure. *)
let pinned_digests =
  [
    ( "seed28-e4ee3cac.chaos",
      "986b817f3385ed5b35cb5a48a2ca01d9" );
    (* Re-pinned when the migration fence gained App.halt (the fenced
       process dies with its container, so its zombie timers no longer
       emit): same green outcome, fewer stray events. *)
    ( "seed352025351311880476-a489e3e4.chaos",
      "73f083f53d524798f5d67bd555933b47" );
    (* Re-pinned with App.halt for the same reason. *)
    ( "seed508528403378398481-3411f630.chaos",
      "c404bc43b972443696541eedbdc4cdfd" );
    (* Held ACKs at the horizon, released by the end-of-run drain. *)
    ( "seed616748401846420832-d9339263.chaos",
      "08cb3eef15cf5601a965954ae77d9fe7" );
    ( "seed3325554301254390428-8318b64e.chaos",
      "0b94b41b5266026bfd3efc5861c0f7e1" );
  ]

let test_corpus_digests_pinned () =
  let dir = if Sys.file_exists "corpus" then "corpus" else "../corpus" in
  let entries = Chaos.Corpus.load_dir dir in
  checki "every committed entry is pinned" (List.length pinned_digests)
    (List.length entries);
  List.iter
    (fun (name, expected) ->
      let r = Chaos.Corpus.replay_file (Filename.concat dir name) in
      checkb (name ^ " replays green") true (Chaos.Corpus.replay_ok r);
      match r.Chaos.Corpus.outcome with
      | Some o -> checks (name ^ " digest") expected o.Chaos.Runner.digest
      | None ->
          Alcotest.failf "%s: %s" name
            (Option.value r.Chaos.Corpus.parse_error ~default:"no outcome"))
    pinned_digests

(* The benchmark's chaos pool pins a digest for each of its 200
   descriptors. All of them replay here (about 2 s), so a change that
   moves any simulated outcome, even one rare schedule's, fails tier-1,
   not only the benchmark run. The file is read, never written. *)
let test_chaos_pool_digests_pinned () =
  let path =
    List.find Sys.file_exists
      [ "perfsuite/golden/chaos_pool.txt"; "../perfsuite/golden/chaos_pool.txt" ]
  in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  checki "pool size" 200 (List.length lines);
  List.iteri
    (fun i line ->
      match String.index_opt line ' ' with
      | None -> Alcotest.failf "pool line %d has no digest" i
      | Some sp -> (
          let pinned = String.sub line 0 sp in
          let text = String.sub line (sp + 1) (String.length line - sp - 1) in
          match Chaos.Descriptor.of_string text with
          | Error e -> Alcotest.failf "pool line %d: %s" i e
          | Ok d ->
              let o = Chaos.Runner.run d in
              checkb (Printf.sprintf "pool line %d green" i) true (Chaos.Runner.ok o);
              checks (Printf.sprintf "pool line %d digest" i) pinned o.Chaos.Runner.digest))
    lines

let test_corpus_replay_detects_failure () =
  (* A replay must fail loudly for an entry whose bug has regressed —
     simulated here with a seeded product fault instead of a code
     regression. *)
  Monitor.Faults.with_fault Monitor.Faults.no_fence (fun () ->
      with_temp_dir (fun dir ->
          let d =
            Result.get_ok
              (Chaos.Descriptor.of_string
                 "chaos1 seed=5 peers=1 hosts=3 ppfx=5 spfx=5 churn=0 \
                  delay=500 window=9000 settle=20000 faults=kill.app@2000")
          in
          let path = Chaos.Corpus.save ~dir d in
          let r = Chaos.Corpus.replay_file path in
          checkb "regressed entry fails replay" false (Chaos.Corpus.replay_ok r);
          checks "entry name" (Filename.basename path) r.Chaos.Corpus.name))

(* --- The checked-run harness ----------------------------------------------- *)

let descriptor line =
  match Chaos.Descriptor.of_string line with
  | Ok d -> d
  | Error e -> Alcotest.failf "descriptor %S: %s" line e

(* A line of the benchmark's pinned pool whose schedule kills the app. *)
let kill_line =
  "chaos1 seed=2338127342049817198 peers=1 hosts=3 ppfx=97 spfx=88 churn=0 \
   delay=545 window=21639 settle=30000 faults=kill.app@2093,bfd.0@5363x84"

let kill_digest = "cf180fe483ef17c90a72b20bcffc0ac3"

(* With [?out] the causal recorder, the series sampler and the profiler
   watch the run: the outcome must be the bare run's, digest included,
   and health.json's critical path must decompose the recovery span
   exactly. *)
let test_observed_run_matches_bare () =
  let d = descriptor kill_line in
  let bare = Chaos.Runner.run d in
  let dir = Filename.concat (Filename.temp_dir "chaos-out" "") "nested/run" in
  let seen = Chaos.Runner.run ~out:dir d in
  checks "pool digest holds" kill_digest bare.Chaos.Runner.digest;
  checks "observed digest" bare.Chaos.Runner.digest seen.Chaos.Runner.digest;
  checki "observed events" bare.Chaos.Runner.events seen.Chaos.Runner.events;
  checks "observed verdict" (Chaos.Runner.summary bare)
    (Chaos.Runner.summary seen);
  checkb "green" true (Chaos.Runner.ok seen);
  let health =
    Monitor.Json.parse_exn
      (In_channel.with_open_bin (Filename.concat dir "health.json")
         In_channel.input_all)
  in
  let num path j = Option.bind (Monitor.Json.path path j) Monitor.Json.to_int in
  match
    ( num [ "critical_path"; "total_ns" ] health,
      Option.bind
        (Monitor.Json.path [ "critical_path"; "segments" ] health)
        Monitor.Json.to_list )
  with
  | Some total, Some (_ :: _ as segments) ->
      checki "segments sum to the recovery span" total
        (List.fold_left
           (fun acc seg -> acc + Option.value ~default:0 (num [ "dur_ns" ] seg))
           0 segments)
  | _ -> Alcotest.fail "health.json has no critical path"

(* The two shrunk queue_drain repros: a KEEPALIVE's ACK still held at
   the horizon, released by the harness's bounded end-of-run drain. *)
let test_horizon_acks_drained () =
  List.iter
    (fun line ->
      let o = Chaos.Runner.run (descriptor line) in
      if not (Chaos.Runner.ok o) then
        Alcotest.failf "not drained: %s" (Chaos.Runner.summary o))
    [
      "chaos1 seed=616748401846420832 peers=3 hosts=3 ppfx=20 spfx=10 \
       churn=0 delay=539 window=19916 settle=30000 faults=-";
      "chaos1 seed=3325554301254390428 peers=3 hosts=3 ppfx=20 spfx=10 \
       churn=0 delay=249 window=19913 settle=30000 faults=-";
    ]

(* The drain is bounded: an ACK that never leaves the hold queue is
   still a queue_drain violation, and the only one. *)
let test_leaked_ack_still_reported () =
  let o =
    Monitor.Faults.with_fault Monitor.Faults.leak_held_acks (fun () ->
        Chaos.Runner.run (descriptor kill_line))
  in
  checkb "run fails" false (Chaos.Runner.ok o);
  checkb "queue_drain reported" true (o.Chaos.Runner.violations <> []);
  List.iter
    (fun (v : Monitor.Checker.violation) ->
      checks "only queue_drain trips" "queue_drain" v.Monitor.Checker.checker)
    o.Chaos.Runner.violations

(* --- Campaigns ------------------------------------------------------------- *)

let test_campaign_green () =
  let c = Chaos.Fuzz.run ~runs:15 ~seed:42 () in
  checkb "15-run campaign green" true (Chaos.Fuzz.campaign_ok c);
  checki "all runs executed" 15 c.Chaos.Fuzz.runs;
  checkb "checkers saw events" true (c.Chaos.Fuzz.events_total > 0)

let test_campaign_captures_and_saves () =
  Monitor.Faults.with_fault Monitor.Faults.no_fence (fun () ->
      with_temp_dir (fun dir ->
          (* Most generated schedules contain a migration-forcing fault,
             so a short campaign under no_fence must fail at least once;
             shrinking writes each repro to the corpus dir. *)
          let c = Chaos.Fuzz.run ~runs:5 ~seed:7 ~shrink:true ~corpus_dir:dir () in
          checkb "campaign failed" false (Chaos.Fuzz.campaign_ok c);
          match c.Chaos.Fuzz.failures with
          | [] -> Alcotest.fail "no failures recorded"
          | f :: _ -> (
              checkb "failure index in range" true
                (f.Chaos.Fuzz.index >= 0 && f.Chaos.Fuzz.index < 5);
              match (f.Chaos.Fuzz.shrunk, f.Chaos.Fuzz.saved) with
              | Some s, Some path ->
                  checkb "saved entry exists" true (Sys.file_exists path);
                  (match Chaos.Corpus.load_file path with
                  | Ok d ->
                      checkb "saved entry is the minimal descriptor" true
                        (Chaos.Descriptor.equal d s.Chaos.Shrink.minimal)
                  | Error e -> Alcotest.failf "saved entry: %s" e)
              | _ -> Alcotest.fail "failure missing shrink result or path")))

let () =
  Alcotest.run "chaos"
    [
      ( "descriptor",
        [
          Alcotest.test_case "generated are valid" `Quick test_generate_valid;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_generated;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "sub-seed spread" `Quick test_sub_seed_spread;
          Alcotest.test_case "applicability matrix" `Quick
            test_applicability_matrix;
          Alcotest.test_case "store fault tokens" `Quick
            test_store_fault_tokens;
          Alcotest.test_case "kill inside store outage rejected" `Quick
            test_validate_rejects_kill_inside_outage;
          Alcotest.test_case "fleet tokens roundtrip" `Quick
            test_fleet_tokens_roundtrip;
          Alcotest.test_case "fleet wave conflicts rejected" `Quick
            test_fleet_wave_conflicts_rejected;
          Alcotest.test_case "bare fault-list parser" `Quick
            test_bare_fault_list_parser;
          Alcotest.test_case "pre-store descriptors still parse" `Quick
            test_pre_store_descriptors_still_parse;
        ] );
      ( "runner",
        Alcotest.test_case "generated runs green" `Slow
          test_generated_runs_green
        :: Alcotest.test_case "store-fault runs green" `Slow
             test_store_fault_runs_green
        :: List.map QCheck_alcotest.to_alcotest [ prop_replay_deterministic ]
      );
      ("shrink", [ Alcotest.test_case "minimizes" `Slow test_shrink_minimizes ]);
      ( "corpus",
        [
          Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "missing dir" `Quick test_corpus_missing_dir;
          Alcotest.test_case "replay detects regressions" `Quick
            test_corpus_replay_detects_failure;
          Alcotest.test_case "committed digests pinned" `Slow
            test_corpus_digests_pinned;
          Alcotest.test_case "benchmark pool digests pinned" `Slow
            test_chaos_pool_digests_pinned;
        ] );
      ( "harness",
        [
          Alcotest.test_case "observed run matches bare" `Quick
            test_observed_run_matches_bare;
          Alcotest.test_case "horizon ACKs drained" `Quick
            test_horizon_acks_drained;
          Alcotest.test_case "leaked ACK still reported" `Quick
            test_leaked_ack_still_reported;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "green campaign" `Slow test_campaign_green;
          Alcotest.test_case "captures, shrinks, saves" `Slow
            test_campaign_captures_and_saves;
        ] );
    ]

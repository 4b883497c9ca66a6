(* Fleet-scale fault campaigns: correlated kills, regional store
   outages and rolling upgrades stay green under all ten checkers; the
   seeded wave-bound fault trips fleet_slo exactly (mutation testing);
   and campaign replay digests are byte-identical across domains. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let faults_of s =
  match Chaos.Descriptor.faults_of_string s with
  | Ok fs -> fs
  | Error e -> Alcotest.failf "faults_of_string %S: %s" s e

let spec ?(instances = 8) ?(regions = 2) ?(hosts = 6) campaign =
  {
    Fleet.Campaign.default_spec with
    Fleet.Campaign.instances;
    regions;
    hosts;
    faults = faults_of campaign;
    window_ms = 30_000;
    settle_ms = 8_000;
  }

let assert_green (o : Fleet.Campaign.outcome) =
  List.iter
    (fun (e : string) -> Alcotest.failf "campaign error: %s" e)
    o.Fleet.Campaign.errors;
  List.iter
    (fun (v : Monitor.Checker.violation) ->
      Alcotest.failf "campaign violation: %s: %s" v.Monitor.Checker.checker
        v.Monitor.Checker.detail)
    o.Fleet.Campaign.violations

(* --- Correlated faults ------------------------------------------------------- *)

let test_host_kill_green () =
  let o = Fleet.Campaign.run (spec "host_kill@5000") in
  assert_green o;
  checki "ten checkers armed" 10 (List.length o.Fleet.Campaign.checkers);
  (* The busiest host carries two co-located instances: both must fail
     over, and no region may lose all replicas of a service. *)
  checki "correlated failovers" 2
    (List.length o.Fleet.Campaign.slo.Fleet.Slo.failover_s)

let test_region_store_outage_sheds_and_rearms () =
  let o = Fleet.Campaign.run (spec "region_store_outage@5000+8000") in
  assert_green o;
  let rows = o.Fleet.Campaign.slo.Fleet.Slo.region_rows in
  checki "two regions" 2 (List.length rows);
  let hit =
    List.filter (fun r -> r.Fleet.Slo.rr_degraded_total > 0) rows
  in
  (* Exactly one region sheds — and every instance in it, together. *)
  checki "one region degraded" 1 (List.length hit);
  let r = List.hd hit in
  checki "whole region shed together" r.Fleet.Slo.rr_instances
    r.Fleet.Slo.rr_degraded_peak;
  checki "all re-armed after heal" 0 r.Fleet.Slo.rr_degraded_now

let test_rolling_upgrade_bounded () =
  let o = Fleet.Campaign.run (spec "rolling_upgrade@3000:2") in
  assert_green o;
  let s = o.Fleet.Campaign.slo in
  checki "every instance upgraded" 8 s.Fleet.Slo.upgrades_done;
  checki "started = done" s.Fleet.Slo.upgrades_started
    s.Fleet.Slo.upgrades_done;
  checkb "wave bound respected" true (s.Fleet.Slo.upgrade_inflight_peak <= 2)

let test_combined_campaign_green () =
  let o =
    Fleet.Campaign.run
      (spec ~instances:12 ~hosts:8 Fleet.Campaign.default_campaign)
  in
  assert_green o;
  checkb "events flowed" true (o.Fleet.Campaign.events > 0)

(* --- Mutation: the wave-bound checker is not vacuously green ----------------- *)

let test_exceed_wave_bound_trips_fleet_slo () =
  let o =
    Monitor.Faults.with_fault Monitor.Faults.exceed_wave_bound (fun () ->
        Fleet.Campaign.run (spec "rolling_upgrade@3000:2"))
  in
  match o.Fleet.Campaign.violations with
  | [] -> Alcotest.fail "seeded wave-bound overrun went undetected"
  | vs ->
      List.iter
        (fun (v : Monitor.Checker.violation) ->
          checks "only fleet_slo trips" "fleet_slo" v.Monitor.Checker.checker)
        vs

(* --- Replay determinism ------------------------------------------------------ *)

let test_digest_stable_across_runs () =
  let s = spec Fleet.Campaign.default_campaign in
  let o1 = Fleet.Campaign.run s in
  let o2 = Fleet.Campaign.run s in
  assert_green o1;
  checks "same spec, same digest" o1.Fleet.Campaign.digest
    o2.Fleet.Campaign.digest

let test_digest_identical_across_jobs () =
  let s = spec Fleet.Campaign.default_campaign in
  let inline = (Fleet.Campaign.run s).Fleet.Campaign.digest in
  let results, _ =
    Par.Pool.run ~jobs:2 2 (fun _ ->
        (Fleet.Campaign.run s).Fleet.Campaign.digest)
  in
  Array.iter (checks "domain digest matches inline" inline) results

(* [?out] attaches the observers and writes the artifact set plus the
   SLO report: the digest and the outcome must be the bare run's. *)
let test_observed_matches_bare () =
  let s = spec "host_kill@5000" in
  let bare = Fleet.Campaign.run s in
  let dir = Filename.temp_dir "fleet-out" "" in
  let seen = Fleet.Campaign.run ~out:dir s in
  assert_green seen;
  checks "observed digest" bare.Fleet.Campaign.digest seen.Fleet.Campaign.digest;
  checks "observed summary" (Fleet.Campaign.summary bare)
    (Fleet.Campaign.summary seen);
  List.iter
    (fun file ->
      checkb (file ^ " written") true
        (Sys.file_exists (Filename.concat dir file)))
    [ "slo.json"; "events.jsonl"; "health.json"; "trace.perfetto.json" ]

(* --- Spec hygiene ------------------------------------------------------------ *)

let test_rejects_non_fleet_tokens () =
  match Fleet.Campaign.check_faults (faults_of "flap.0@1000+200") with
  | Ok () -> Alcotest.fail "flap has no fleet semantics and must be rejected"
  | Error _ -> ()

let test_instances_normalized_to_pairs () =
  checki "rounded up to replica pairs" 10 (Fleet.Topology.normalize_instances 9);
  checki "minimum one service" 2 (Fleet.Topology.normalize_instances 1)

(* --- SLO fold ------------------------------------------------------------------ *)

(* The live bus subscriber [Fleet.Slo] was before it became a fold over
   captured entries, verbatim: the reference the property below holds
   [Fleet.Slo.of_entries] to, fed one entry at a time. *)
module Ref_slo = struct
  open Sim

  (* Fleet-wide SLO aggregation over the telemetry bus: per-region
     availability (instance-up seconds over the observation horizon),
     the failover-time distribution (Failure_detected → Migration_done),
     degraded-instance accounting, upgrade progress, and deferred
     migrations. A live subscriber, like the invariant checkers — no
     polling, no second pass over the event log. *)

  type region_stat = {
    mutable r_instances : int;
    mutable r_up_s : float;  (* closed instance-up intervals *)
    mutable r_degraded : int;
    mutable r_degraded_peak : int;
    mutable r_degraded_total : int;
  }

  type t = {
    sub : Telemetry.Bus.sub;
    regions : (string, region_stat) Hashtbl.t;
    region_of : (string, string) Hashtbl.t;  (* instance -> region *)
    container_of : (string, string) Hashtbl.t;  (* container -> instance *)
    up_since : (string, Time.t) Hashtbl.t;
    detect_at : (string, Time.t) Hashtbl.t;
    mutable failovers_s : float list;
    mutable upgrades_started : int;
    mutable upgrades_done : int;
    mutable upgrade_inflight : int;
    mutable upgrade_inflight_peak : int;
    mutable deferred : int;
    mutable t0 : Time.t option;
    mutable t_end : Time.t;
  }

  let region t inst =
    match Hashtbl.find_opt t.region_of inst with
    | Some r -> Hashtbl.find_opt t.regions r
    | None -> None

  let mark_up t inst at =
    if not (Hashtbl.mem t.up_since inst) then Hashtbl.replace t.up_since inst at

  let mark_down t inst at =
    match Hashtbl.find_opt t.up_since inst with
    | None -> ()
    | Some since -> (
        Hashtbl.remove t.up_since inst;
        match region t inst with
        | Some rs -> rs.r_up_s <- rs.r_up_s +. Time.to_sec_f (Time.diff at since)
        | None -> ())

  let on_entry t (e : Telemetry.Bus.entry) =
    let at = e.Telemetry.Bus.at in
    if t.t0 = None then t.t0 <- Some at;
    t.t_end <- at;
    match e.Telemetry.Bus.event with
    | Telemetry.Event.Fleet_placed { instance; region; container; _ } ->
        let rs =
          match Hashtbl.find_opt t.regions region with
          | Some rs -> rs
          | None ->
              let rs =
                {
                  r_instances = 0;
                  r_up_s = 0.;
                  r_degraded = 0;
                  r_degraded_peak = 0;
                  r_degraded_total = 0;
                }
              in
              Hashtbl.replace t.regions region rs;
              rs
        in
        rs.r_instances <- rs.r_instances + 1;
        Hashtbl.replace t.region_of instance region;
        Hashtbl.replace t.container_of container instance;
        mark_up t instance at
    | Telemetry.Event.Container_state { id; state; _ } -> (
        match Hashtbl.find_opt t.container_of id with
        | None -> ()
        | Some inst ->
            if String.equal state "running" then mark_up t inst at
            else mark_down t inst at)
    | Telemetry.Event.Failure_detected { id; _ } ->
        if Hashtbl.mem t.region_of id then Hashtbl.replace t.detect_at id at
    | Telemetry.Event.Migration_done { id; container; _ } ->
        if Hashtbl.mem t.region_of id then begin
          Hashtbl.replace t.container_of container id;
          mark_up t id at;
          match Hashtbl.find_opt t.detect_at id with
          | Some d ->
              Hashtbl.remove t.detect_at id;
              t.failovers_s <- Time.to_sec_f (Time.diff at d) :: t.failovers_s
          | None -> ()
        end
    | Telemetry.Event.Migration_deferred _ -> t.deferred <- t.deferred + 1
    | Telemetry.Event.Upgrade_started _ ->
        t.upgrades_started <- t.upgrades_started + 1;
        t.upgrade_inflight <- t.upgrade_inflight + 1;
        if t.upgrade_inflight > t.upgrade_inflight_peak then
          t.upgrade_inflight_peak <- t.upgrade_inflight
    | Telemetry.Event.Upgrade_done { instance; container; _ } ->
        t.upgrade_inflight <- max 0 (t.upgrade_inflight - 1);
        t.upgrades_done <- t.upgrades_done + 1;
        Hashtbl.replace t.container_of container instance;
        mark_up t instance at
    | Telemetry.Event.Fleet_degraded { instance; _ } -> (
        match region t instance with
        | Some rs ->
            rs.r_degraded <- rs.r_degraded + 1;
            rs.r_degraded_total <- rs.r_degraded_total + 1;
            if rs.r_degraded > rs.r_degraded_peak then
              rs.r_degraded_peak <- rs.r_degraded
        | None -> ())
    | Telemetry.Event.Fleet_rearmed { instance; _ } -> (
        match region t instance with
        | Some rs -> rs.r_degraded <- max 0 (rs.r_degraded - 1)
        | None -> ())
    | _ -> ()

  let install () =
    let rec t =
      lazy
        {
          sub = Telemetry.Bus.subscribe (fun e -> on_entry (Lazy.force t) e);
          regions = Hashtbl.create 8;
          region_of = Hashtbl.create 64;
          container_of = Hashtbl.create 64;
          up_since = Hashtbl.create 64;
          detect_at = Hashtbl.create 16;
          failovers_s = [];
          upgrades_started = 0;
          upgrades_done = 0;
          upgrade_inflight = 0;
          upgrade_inflight_peak = 0;
          deferred = 0;
          t0 = None;
          t_end = Time.zero;
        }
    in
    Lazy.force t

  (* --- Report ---------------------------------------------------------------- *)

  type region_report = {
    rr_name : string;
    rr_instances : int;
    rr_availability : float;
    rr_degraded_now : int;
    rr_degraded_peak : int;
    rr_degraded_total : int;
  }

  type report = {
    horizon_s : float;
    region_rows : region_report list;  (* sorted by region name *)
    failover_s : float list;  (* ascending *)
    upgrades_started : int;
    upgrades_done : int;
    upgrade_inflight_peak : int;
    deferred : int;
  }

  let percentile sorted p =
    match sorted with
    | [] -> 0.
    | l ->
        let n = List.length l in
        let idx = min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1) in
        List.nth l (max 0 idx)

  let finish t =
    Telemetry.Bus.unsubscribe t.sub;
    let t_end = t.t_end in
    (* Close every open up-interval at the horizon. *)
    Det.iter_sorted ~compare:String.compare
      (fun inst (_ : Time.t) -> mark_down t inst t_end)
      t.up_since;
    let horizon_s =
      match t.t0 with
      | Some t0 -> Time.to_sec_f (Time.diff t_end t0)
      | None -> 0.
    in
    let region_rows =
      Det.fold_sorted ~compare:String.compare
        (fun name rs acc ->
          let denom = float_of_int rs.r_instances *. horizon_s in
          {
            rr_name = name;
            rr_instances = rs.r_instances;
            rr_availability = (if denom > 0. then rs.r_up_s /. denom else 1.);
            rr_degraded_now = rs.r_degraded;
            rr_degraded_peak = rs.r_degraded_peak;
            rr_degraded_total = rs.r_degraded_total;
          }
          :: acc)
        t.regions []
      |> List.rev
    in
    {
      horizon_s;
      region_rows;
      failover_s = List.sort compare t.failovers_s;
      upgrades_started = t.upgrades_started;
      upgrades_done = t.upgrades_done;
      upgrade_inflight_peak = t.upgrade_inflight_peak;
      deferred = t.deferred;
    }

  let to_text r =
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "fleet SLO over %.1fs:\n" r.horizon_s);
    List.iter
      (fun rr ->
        Buffer.add_string b
          (Printf.sprintf
             "  region %s: %d instances, availability %.5f, degraded \
              now=%d peak=%d total=%d\n"
             rr.rr_name rr.rr_instances rr.rr_availability rr.rr_degraded_now
             rr.rr_degraded_peak rr.rr_degraded_total))
      r.region_rows;
    let fo = r.failover_s in
    Buffer.add_string b
      (Printf.sprintf
         "  failovers: %d (p50 %.3fs, p95 %.3fs, max %.3fs)\n"
         (List.length fo) (percentile fo 0.5) (percentile fo 0.95)
         (percentile fo 1.0));
    Buffer.add_string b
      (Printf.sprintf
         "  upgrades: %d started, %d done, peak in-flight %d\n"
         r.upgrades_started r.upgrades_done r.upgrade_inflight_peak);
    Buffer.add_string b (Printf.sprintf "  deferred migrations: %d\n" r.deferred);
    Buffer.contents b

  let to_json r =
    let b = Buffer.create 512 in
    Buffer.add_string b (Printf.sprintf "{\"horizon_s\":%.3f" r.horizon_s);
    Buffer.add_string b ",\"regions\":[";
    List.iteri
      (fun i rr ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"region\":%S,\"instances\":%d,\"availability\":%.6f,\
              \"degraded_now\":%d,\"degraded_peak\":%d,\"degraded_total\":%d}"
             rr.rr_name rr.rr_instances rr.rr_availability rr.rr_degraded_now
             rr.rr_degraded_peak rr.rr_degraded_total))
      r.region_rows;
    Buffer.add_string b "],\"failover_s\":[";
    List.iteri
      (fun i f ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "%.4f" f))
      r.failover_s;
    Buffer.add_string b
      (Printf.sprintf
         "],\"upgrades_started\":%d,\"upgrades_done\":%d,\
          \"upgrade_inflight_peak\":%d,\"deferred\":%d}"
         r.upgrades_started r.upgrades_done r.upgrade_inflight_peak r.deferred);
    Buffer.contents b
end

let ref_report entries =
  let t = Ref_slo.install () in
  List.iter (Ref_slo.on_entry t) entries;
  Ref_slo.finish t

let entries_of events =
  List.mapi
    (fun i (at, event) -> { Telemetry.Bus.seq = i + 1; at; event })
    events

let placed instance region =
  Telemetry.Event.Fleet_placed
    { service = instance; instance; region; host = "h0"; container = instance ^ ".c0" }

let detected id = Telemetry.Event.Failure_detected { id; kind = "host" }
let initiated id = Telemetry.Event.Migration_initiated { id }

let migrated id container =
  Telemetry.Event.Migration_done { id; host = "h1"; container }

(* A failure detected again while its first migration is in flight
   counts once, from the second detection; milestones of an instance no
   [Fleet_placed] named are not a fleet failover. *)
let test_slo_redetected_failure () =
  let s = Sim.Time.sec in
  let entries =
    entries_of
      [
        (0, placed "a" "r0");
        (s 1, detected "a");
        (s 1 + Sim.Time.ms 200, initiated "a");
        (s 3, detected "a");
        (s 3 + Sim.Time.ms 500, initiated "a");
        (s 5, migrated "a" "a.c1");
        (s 6, detected "ghost");
        (s 7, initiated "ghost");
        (s 8, migrated "ghost" "ghost.c1");
      ]
  in
  let r = Fleet.Slo.of_entries entries in
  Alcotest.(check (list (float 0.)))
    "one failover, from the second detection" [ 2.0 ] r.Fleet.Slo.failover_s;
  checks "the reference agrees" (Ref_slo.to_json (ref_report entries))
    (Fleet.Slo.to_json r)

(* One step of a random fleet script: [kind] picks the event, [who] the
   instance ([who = n] is an instance no placement named), [dt] the
   nanoseconds since the previous entry. *)
type step = { kind : int; who : int; dt : int }

(* Placements come first, as [Topology.build] emits them. Each
   instance's controller milestones keep the controller's order: a
   detection may abandon an attempt still in flight (a newer epoch took
   over), but [Migration_done] only follows its own
   [Migration_initiated], which only follows a detection. *)
let script_entries (n, regions, steps) =
  let id i = if i >= n then "ghost" else Printf.sprintf "i%d" i in
  let region i = Printf.sprintf "r%d" (i mod regions) in
  let state = Array.make (n + 1) `Idle and gen = Array.make (n + 1) 0 in
  let container i = Printf.sprintf "%s.c%d" (id i) gen.(i) in
  let fresh i =
    gen.(i) <- gen.(i) + 1;
    container i
  in
  let at = ref (Sim.Time.sec 1) in
  let events =
    List.init n (fun i -> (!at, placed (id i) (region i)))
    @ List.filter_map
        (fun { kind; who; dt } ->
          at := !at + dt;
          let i = who and inst = id who in
          let ev =
            match (kind, state.(i)) with
            | (0 | 1 | 2), _ ->
                state.(i) <- `Detected;
                Some (detected inst)
            | (3 | 4 | 5), `Detected ->
                state.(i) <- `Initiated;
                Some (initiated inst)
            | (6 | 7 | 8), `Initiated ->
                state.(i) <- `Idle;
                Some (migrated inst (fresh i))
            | (3 | 4 | 5 | 6 | 7 | 8), _ -> None
            | 9, _ ->
                Some
                  (Telemetry.Event.Container_state
                     {
                       id = container i;
                       host = "h0";
                       state = (if dt mod 2 = 0 then "running" else "exited");
                     })
            | 10, _ ->
                Some
                  (Telemetry.Event.Migration_deferred
                     { id = inst; reason = "store-unreachable" })
            | 11, _ ->
                Some
                  (Telemetry.Event.Upgrade_started
                     { instance = inst; wave = 0; inflight = 1; bound = 2 })
            | 12, _ ->
                Some
                  (Telemetry.Event.Upgrade_done
                     { instance = inst; wave = 0; container = fresh i })
            | 13, _ ->
                Some (Telemetry.Event.Fleet_degraded { instance = inst; region = region i })
            | 14, _ ->
                Some
                  (Telemetry.Event.Fleet_rearmed
                     { instance = inst; region = region i; degraded_s = 1. })
            | _ -> Some (Telemetry.Event.Failure_injected { service = inst; kind = "app" })
          in
          Option.map (fun e -> (!at, e)) ev)
        steps
  in
  entries_of events

let gen_script =
  QCheck.Gen.(
    let* n = int_range 1 6 and* regions = int_range 1 3 in
    let step =
      let* kind = int_bound 15
      and* who = int_bound n
      and* dt =
        frequency [ (1, return 0); (6, int_bound 2_000_000_000) ]
      in
      return { kind; who; dt }
    in
    let* steps = list_size (int_bound 80) step in
    return (n, regions, steps))

let print_script (n, regions, steps) =
  Printf.sprintf "%d instances, %d regions: %s" n regions
    (String.concat " "
       (List.map (fun s -> Printf.sprintf "%d/%d+%d" s.kind s.who s.dt) steps))

let prop_slo_matches_reference =
  QCheck.Test.make ~name:"Slo.of_entries reports what the live subscriber did"
    ~count:500
    (QCheck.make ~print:print_script gen_script)
    (fun script ->
      let entries = script_entries script in
      let got = Fleet.Slo.of_entries entries and want = ref_report entries in
      String.equal (Fleet.Slo.to_text got) (Ref_slo.to_text want)
      && String.equal (Fleet.Slo.to_json got) (Ref_slo.to_json want))

let () =
  Alcotest.run "fleet"
    [
      ( "campaign",
        [
          Alcotest.test_case "host kill is correlated and green" `Quick
            test_host_kill_green;
          Alcotest.test_case "region outage sheds and re-arms together" `Quick
            test_region_store_outage_sheds_and_rearms;
          Alcotest.test_case "rolling upgrade bounded and complete" `Quick
            test_rolling_upgrade_bounded;
          Alcotest.test_case "stock combined campaign green" `Quick
            test_combined_campaign_green;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "seeded wave overrun trips fleet_slo" `Quick
            test_exceed_wave_bound_trips_fleet_slo;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "digest stable across runs" `Quick
            test_digest_stable_across_runs;
          Alcotest.test_case "digest identical across --jobs" `Quick
            test_digest_identical_across_jobs;
          Alcotest.test_case "observed run matches bare" `Quick
            test_observed_matches_bare;
        ] );
      ( "slo",
        Alcotest.test_case "re-detected failure counts once" `Quick
          test_slo_redetected_failure
        :: List.map QCheck_alcotest.to_alcotest [ prop_slo_matches_reference ]
      );
      ( "spec",
        [
          Alcotest.test_case "non-fleet tokens rejected" `Quick
            test_rejects_non_fleet_tokens;
          Alcotest.test_case "instances normalize to replica pairs" `Quick
            test_instances_normalized_to_pairs;
        ] );
    ]

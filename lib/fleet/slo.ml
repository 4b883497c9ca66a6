open Sim

(* Fleet-wide SLO report of one run, folded from its bus entries:
   per-region availability (instance-up seconds over the observation
   horizon), the failover-time distribution (controller detection to
   migration done, from Telemetry.Phase), degraded-instance accounting,
   upgrade progress, and deferred migrations. *)

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

type region_stat = {
  mutable r_instances : int;
  mutable r_up_s : float;  (* closed instance-up intervals *)
  mutable r_degraded : int;
  mutable r_degraded_peak : int;
  mutable r_degraded_total : int;
}

(* One failover per finished [migrate] phase of a placed instance, from
   the start of the [initiate] phase it continues: detection to
   migration done. *)
let failovers phases ~placed =
  let initiated = Hashtbl.create 16 in
  List.iter
    (fun (p : Telemetry.Phase.t) ->
      match (p.name, p.close_seq) with
      | "initiate", Some seq -> Hashtbl.replace initiated seq p.start_at
      | _ -> ())
    phases;
  List.filter_map
    (fun (p : Telemetry.Phase.t) ->
      match (p.name, p.stop_at) with
      | "migrate", Some stop when placed p.key ->
          Hashtbl.find_opt initiated p.open_seq
          |> Option.map (fun start -> Time.to_sec_f (Time.diff stop start))
      | _ -> None)
    phases

let of_entries entries =
  let regions = Hashtbl.create 8 in
  let region_of = Hashtbl.create 64 in  (* instance -> its region *)
  let container_of = Hashtbl.create 64 in  (* container -> instance *)
  let up_since = Hashtbl.create 64 in
  let upgrades_started = ref 0 and upgrades_done = ref 0 in
  let inflight = ref 0 and inflight_peak = ref 0 and deferred = ref 0 in
  let mark_up inst at =
    if not (Hashtbl.mem up_since inst) then Hashtbl.replace up_since inst at
  in
  let mark_down inst at =
    match Hashtbl.find_opt up_since inst with
    | None -> ()
    | Some since -> (
        Hashtbl.remove up_since inst;
        match Hashtbl.find_opt region_of inst with
        | Some rs ->
            rs.r_up_s <- rs.r_up_s +. Time.to_sec_f (Time.diff at since)
        | None -> ())
  in
  List.iter
    (fun ({ at; event; _ } : Telemetry.Bus.entry) ->
      match event with
      | Telemetry.Event.Fleet_placed { instance; region; container; _ } ->
          let rs =
            match Hashtbl.find_opt regions region with
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
                Hashtbl.replace regions region rs;
                rs
          in
          rs.r_instances <- rs.r_instances + 1;
          Hashtbl.replace region_of instance rs;
          Hashtbl.replace container_of container instance;
          mark_up instance at
      | Container_state { id; state; _ } -> (
          match Hashtbl.find_opt container_of id with
          | None -> ()
          | Some inst ->
              if String.equal state "running" then mark_up inst at
              else mark_down inst at)
      | Migration_done { id; container; _ } ->
          if Hashtbl.mem region_of id then begin
            Hashtbl.replace container_of container id;
            mark_up id at
          end
      | Migration_deferred _ -> incr deferred
      | Upgrade_started _ ->
          incr upgrades_started;
          incr inflight;
          inflight_peak := max !inflight_peak !inflight
      | Upgrade_done { instance; container; _ } ->
          inflight := max 0 (!inflight - 1);
          incr upgrades_done;
          Hashtbl.replace container_of container instance;
          mark_up instance at
      | Fleet_degraded { instance; _ } -> (
          match Hashtbl.find_opt region_of instance with
          | Some rs ->
              rs.r_degraded <- rs.r_degraded + 1;
              rs.r_degraded_total <- rs.r_degraded_total + 1;
              rs.r_degraded_peak <- max rs.r_degraded_peak rs.r_degraded
          | None -> ())
      | Fleet_rearmed { instance; _ } -> (
          match Hashtbl.find_opt region_of instance with
          | Some rs -> rs.r_degraded <- max 0 (rs.r_degraded - 1)
          | None -> ())
      | _ -> ())
    entries;
  let horizon_s =
    match entries with
    | [] -> 0.
    | first :: _ ->
        let t_end =
          List.fold_left (fun _ (e : Telemetry.Bus.entry) -> e.at) first.at
            entries
        in
        (* Close every open up-interval at the horizon. *)
        Det.iter_sorted ~compare:String.compare
          (fun inst (_ : Time.t) -> mark_down inst t_end)
          up_since;
        Time.to_sec_f (Time.diff t_end first.at)
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
      regions []
    |> List.rev
  in
  {
    horizon_s;
    region_rows;
    failover_s =
      List.sort compare
        (failovers (Telemetry.Phase.of_entries entries)
           ~placed:(Hashtbl.mem region_of));
    upgrades_started = !upgrades_started;
    upgrades_done = !upgrades_done;
    upgrade_inflight_peak = !inflight_peak;
    deferred = !deferred;
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

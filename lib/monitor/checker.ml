(* Streaming NSR invariant checkers over the telemetry bus.

   A checker set subscribes to the firehose and folds every entry, in
   global-sequence order, into a small amount of per-invariant state.
   Violations are recorded as they happen (with the ambient causal span
   at emission time); [finalize] runs the end-of-run balance checks
   (queue drain, RIB convergence), unsubscribes, and returns the
   per-checker verdicts. *)

type violation = {
  checker : string;
  event_seq : int;
  span : Telemetry.Span.id;
  at : Sim.Time.t;
  detail : string;
}

type result = Pass | Violations of violation list

type config = {
  peers : string list;
  bfd_tolerance : float;
  ack_deadline_s : float;
}

let default_config = { peers = []; bfd_tolerance = 0.25; ack_deadline_s = 0. }

let names =
  [
    "no_peer_visible_reset";
    "tcp_stream_continuity";
    "held_ack_safety";
    "bfd_detection_bound";
    "rib_convergence";
    "split_brain_exclusion";
    "route_flap_absence";
    "queue_drain";
    "degraded_mode_exclusion";
    "fleet_slo";
  ]

type snapshot = { sn_group : string; sn_node : string; sn_size : int; sn_digest : string; sn_seq : int }

type t = {
  cfg : config;
  mutable sub : Telemetry.Bus.sub option;
  mutable violations : violation list; (* newest first *)
  mutable events_seen : int;
  mutable last_seq : int;
  mutable last_at : Sim.Time.t;
  (* tcp_stream_continuity / held_ack_safety: durable replication
     watermarks. [Wm_durable] is keyed by replicator connection id
     ("service|vrf") while [Repair_import] carries the TCP quad, so the
     stream-continuity check uses the global maximum (exact whenever one
     connection is under repair, which covers every check scenario). *)
  mutable max_wm : int; (* min_int until the first Wm_durable *)
  wm_by_conn : (string, int) Hashtbl.t;
  (* queue_drain: held = released + dropped + shed, per connection. *)
  held : (string, int) Hashtbl.t;
  released : (string, int) Hashtbl.t;
  dropped : (string, int) Hashtbl.t;
  shed : (string, int) Hashtbl.t;
  mutable outstanding_acks : int; (* held - released - dropped - shed, all conns *)
  conn_last_seq : (string, int) Hashtbl.t;
  (* degraded_mode_exclusion: connections currently in degraded
     pass-through. *)
  degraded : (string, unit) Hashtbl.t;
  mutable queue_drop_events : int; (* informational (see netfilter.mli) *)
  (* split_brain_exclusion *)
  primaries : (string, string) Hashtbl.t; (* service -> container id *)
  fenced : (string, unit) Hashtbl.t; (* containers seen stopped/failed *)
  container_host : (string, string) Hashtbl.t;
  dead_hosts : (string, unit) Hashtbl.t;
  (* rib_convergence: snapshots grouped by the event's [vrf] field (the
     harness uses it as a free-form comparison-group key). *)
  mutable snapshots : snapshot list;
  (* fleet_slo: replica accounting per fleet service. An instance is a
     replica; its current container identity arrives on [Fleet_placed]
     and moves on [Migration_done] / [Upgrade_done]; [Container_state]
     of the current container flips it up/down. The invariant is that
     an armed service never reaches zero running replicas. *)
  fl_service_of : (string, string) Hashtbl.t; (* instance -> service *)
  fl_region_of : (string, string) Hashtbl.t; (* instance -> region *)
  fl_container_of : (string, string) Hashtbl.t; (* container -> instance *)
  fl_up : (string, unit) Hashtbl.t; (* instances currently running *)
  fl_running : (string, int) Hashtbl.t; (* service -> running replicas *)
  fl_degraded : (string, unit) Hashtbl.t; (* degraded, not yet re-armed *)
  mutable fl_inflight : int; (* upgrades currently draining *)
}

let violate t checker ~seq ~span ~at detail =
  t.violations <-
    { checker; event_seq = seq; span; at; detail } :: t.violations

let ambient_span () =
  match Telemetry.Span.ambient () with
  | Some sid -> sid
  | None -> Telemetry.Span.none

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let note_primary t ~service ~container =
  Hashtbl.replace t.primaries service container

(* fleet_slo replica accounting. Transitions are idempotent (an
   instance already up stays up) so replayed/duplicate state events
   never skew the count. *)
let fleet_mark_up t instance =
  if Hashtbl.mem t.fl_service_of instance && not (Hashtbl.mem t.fl_up instance)
  then begin
    Hashtbl.replace t.fl_up instance ();
    match Hashtbl.find_opt t.fl_service_of instance with
    | Some svc -> bump t.fl_running svc
    | None -> ()
  end

let fleet_mark_down t instance viol =
  if Hashtbl.mem t.fl_up instance then begin
    Hashtbl.remove t.fl_up instance;
    match Hashtbl.find_opt t.fl_service_of instance with
    | Some svc ->
        let n =
          Option.value (Hashtbl.find_opt t.fl_running svc) ~default:0 - 1
        in
        Hashtbl.replace t.fl_running svc (max 0 n);
        if n <= 0 then
          let region =
            Option.value (Hashtbl.find_opt t.fl_region_of instance) ~default:"?"
          in
          viol "fleet_slo"
            (Printf.sprintf
               "region %s lost all replicas of service %s (last one down: %s)"
               region svc instance)
    | None -> ()
  end

let on_entry t (e : Telemetry.Bus.entry) =
  t.events_seen <- t.events_seen + 1;
  t.last_seq <- e.seq;
  t.last_at <- e.at;
  let viol checker detail =
    violate t checker ~seq:e.seq ~span:(ambient_span ()) ~at:e.at detail
  in
  (* [ack_deadline_s = 0.] leaves the deadline discipline unarmed (no
     degraded mode deployed); the 10% + 100 ms slack absorbs watchdog
     granularity. *)
  let over_deadline held_s =
    t.cfg.ack_deadline_s > 0.
    && held_s > (t.cfg.ack_deadline_s *. 1.1) +. 0.1
  in
  match e.event with
  | Telemetry.Event.Session_down { node; peer; reason } ->
      if List.mem node t.cfg.peers then begin
        viol "no_peer_visible_reset"
          (Printf.sprintf "peer %s saw its session to %s go down (%s)" node
             peer reason);
        if Hashtbl.length t.degraded > 0 then
          viol "degraded_mode_exclusion"
            (Printf.sprintf
               "peer %s saw its session to %s go down (%s) while the service \
                was in degraded pass-through — degradation failed to keep \
                the session alive"
               node peer reason)
      end
  | Wm_durable { conn; ack } ->
      if t.max_wm = min_int || ack > t.max_wm then t.max_wm <- ack;
      let cur = Option.value (Hashtbl.find_opt t.wm_by_conn conn) ~default:min_int in
      if ack > cur then Hashtbl.replace t.wm_by_conn conn ack
  | Repair_import { conn; snd_una; snd_nxt; rcv_nxt; _ } ->
      if snd_una > snd_nxt then
        viol "tcp_stream_continuity"
          (Printf.sprintf "%s: restored snd_una %d ahead of snd_nxt %d" conn
             snd_una snd_nxt);
      if t.max_wm <> min_int && rcv_nxt > t.max_wm then
        viol "tcp_stream_continuity"
          (Printf.sprintf
             "%s: restored rcv_nxt %d is %d byte(s) beyond the durable \
              watermark %d — part of the receive stream was acknowledged \
              but never replicated"
             conn rcv_nxt (rcv_nxt - t.max_wm) t.max_wm)
  | Ack_held { conn; _ } ->
      bump t.held conn;
      t.outstanding_acks <- t.outstanding_acks + 1;
      Hashtbl.replace t.conn_last_seq conn e.seq;
      if Hashtbl.mem t.degraded conn then
        viol "degraded_mode_exclusion"
          (Printf.sprintf
             "%s: ACK held while in degraded pass-through — nothing may be \
              held once durability was declared unachievable"
             conn)
  | Ack_released { conn; ack; held_s } ->
      bump t.released conn;
      t.outstanding_acks <- t.outstanding_acks - 1;
      Hashtbl.replace t.conn_last_seq conn e.seq;
      let wm = Option.value (Hashtbl.find_opt t.wm_by_conn conn) ~default:min_int in
      if ack > wm then
        viol "held_ack_safety"
          (Printf.sprintf
             "%s: ACK %d released to the peer beyond the durable watermark %s"
             conn ack
             (if wm = min_int then "(none recorded)" else string_of_int wm));
      if over_deadline held_s then
        viol "degraded_mode_exclusion"
          (Printf.sprintf
             "%s: ACK %d held %.3fs — past the %.3fs degrade deadline \
              without entering degraded mode"
             conn ack held_s t.cfg.ack_deadline_s)
  | Ack_dropped { conn; _ } ->
      bump t.dropped conn;
      t.outstanding_acks <- t.outstanding_acks - 1;
      Hashtbl.replace t.conn_last_seq conn e.seq
  | Ack_shed { conn; ack; held_s } ->
      bump t.shed conn;
      t.outstanding_acks <- t.outstanding_acks - 1;
      Hashtbl.replace t.conn_last_seq conn e.seq;
      if over_deadline held_s then
        viol "degraded_mode_exclusion"
          (Printf.sprintf
             "%s: ACK %d shed after %.3fs — held past the %.3fs degrade \
              deadline before degraded mode engaged"
             conn ack held_s t.cfg.ack_deadline_s)
  | Degraded_enter { conn; oldest_held_s; _ } ->
      Hashtbl.replace t.degraded conn ();
      Hashtbl.replace t.conn_last_seq conn e.seq;
      if over_deadline oldest_held_s then
        viol "degraded_mode_exclusion"
          (Printf.sprintf
             "%s: degraded mode engaged with the oldest ACK already held \
              %.3fs — past the %.3fs deadline"
             conn oldest_held_s t.cfg.ack_deadline_s)
  | Degraded_exit { conn; _ } ->
      Hashtbl.remove t.degraded conn;
      Hashtbl.replace t.conn_last_seq conn e.seq
  | Bfd_down { node; peer; silent_s; interval_s; mult; _ } ->
      let bound = interval_s *. float_of_int mult in
      let limit = (bound *. (1.0 +. t.cfg.bfd_tolerance)) +. 0.01 in
      if silent_s > limit then
        viol "bfd_detection_bound"
          (Printf.sprintf
             "%s->%s: declared down after %.3fs of silence; detection bound \
              is %.3fs (%.3fs x %d)"
             node peer silent_s bound interval_s mult)
  | Rib_snapshot { node; vrf; size; digest } ->
      t.snapshots <-
        { sn_group = vrf; sn_node = node; sn_size = size; sn_digest = digest;
          sn_seq = e.seq }
        :: t.snapshots
  | Routes_withdrawn { node; peer; count } ->
      if List.mem node t.cfg.peers then
        viol "route_flap_absence"
          (Printf.sprintf "peer %s received %d withdrawal(s) from %s" node
             count peer)
  | Container_state { id; host; state } ->
      if host <> "" then Hashtbl.replace t.container_host id host;
      (match state with
      | "stopped" | "failed" -> Hashtbl.replace t.fenced id ()
      | _ -> ());
      (match Hashtbl.find_opt t.fl_container_of id with
      | Some inst -> (
          match state with
          | "running" -> fleet_mark_up t inst
          | "stopped" | "failed" -> fleet_mark_down t inst viol
          | _ -> ())
      | None -> ())
  | Host_suspect { host } | Host_failed { host } ->
      Hashtbl.replace t.dead_hosts host ()
  | Replica_promoted { service; container } ->
      (match Hashtbl.find_opt t.primaries service with
      | Some prev when not (String.equal prev container) ->
          let prev_fenced = Hashtbl.mem t.fenced prev in
          let prev_host_dead =
            match Hashtbl.find_opt t.container_host prev with
            | Some h -> Hashtbl.mem t.dead_hosts h
            | None -> false
          in
          if not (prev_fenced || prev_host_dead) then
            viol "split_brain_exclusion"
              (Printf.sprintf
                 "%s promoted as primary of %s while the previous primary %s \
                  was neither fenced nor on a failed host — two speakers \
                  could talk"
                 container service prev)
      | _ -> ());
      note_primary t ~service ~container
  | Queue_dropped _ -> t.queue_drop_events <- t.queue_drop_events + 1
  | Fleet_placed { service; instance; region; container; _ } ->
      Hashtbl.replace t.fl_service_of instance service;
      Hashtbl.replace t.fl_region_of instance region;
      Hashtbl.replace t.fl_container_of container instance;
      fleet_mark_up t instance
  | Migration_done { id; container; _ } ->
      (* A failure migration re-homed the instance: its replica is back
         up in the replacement container. *)
      if Hashtbl.mem t.fl_service_of id then begin
        Hashtbl.replace t.fl_container_of container id;
        fleet_mark_up t id
      end
  | Upgrade_started { instance; wave; bound; _ } ->
      (* The checker keeps its own in-flight count rather than trusting
         the planner's [inflight] field — the count is the oracle. *)
      t.fl_inflight <- t.fl_inflight + 1;
      if t.fl_inflight > bound then
        viol "fleet_slo"
          (Printf.sprintf
             "wave %d: %d concurrent upgrade drains exceed the bound %d \
              (draining %s)"
             wave t.fl_inflight bound instance)
  | Upgrade_done { instance; container; _ } ->
      t.fl_inflight <- max 0 (t.fl_inflight - 1);
      if Hashtbl.mem t.fl_service_of instance then begin
        Hashtbl.replace t.fl_container_of container instance;
        fleet_mark_up t instance
      end
  | Fleet_degraded { instance; _ } -> Hashtbl.replace t.fl_degraded instance ()
  | Fleet_rearmed { instance; _ } -> Hashtbl.remove t.fl_degraded instance
  | _ -> ()

let install ?(cfg = default_config) () =
  let t =
    {
      cfg;
      sub = None;
      violations = [];
      events_seen = 0;
      last_seq = 0;
      last_at = Sim.Time.zero;
      max_wm = min_int;
      wm_by_conn = Hashtbl.create 8;
      held = Hashtbl.create 8;
      released = Hashtbl.create 8;
      dropped = Hashtbl.create 8;
      shed = Hashtbl.create 8;
      outstanding_acks = 0;
      conn_last_seq = Hashtbl.create 8;
      degraded = Hashtbl.create 8;
      queue_drop_events = 0;
      primaries = Hashtbl.create 8;
      fenced = Hashtbl.create 8;
      container_host = Hashtbl.create 8;
      dead_hosts = Hashtbl.create 8;
      snapshots = [];
      fl_service_of = Hashtbl.create 64;
      fl_region_of = Hashtbl.create 64;
      fl_container_of = Hashtbl.create 64;
      fl_up = Hashtbl.create 64;
      fl_running = Hashtbl.create 64;
      fl_degraded = Hashtbl.create 16;
      fl_inflight = 0;
    }
  in
  t.sub <- Some (Telemetry.Bus.subscribe (fun e -> on_entry t e));
  t

let violations t = List.rev t.violations
let events_seen t = t.events_seen
let queue_drop_events t = t.queue_drop_events
let outstanding_acks t = t.outstanding_acks

let check_queue_drain t =
  let keys tbl = Sim.Det.keys ~compare:String.compare tbl in
  let conns =
    List.sort_uniq String.compare
      (keys t.held @ keys t.released @ keys t.dropped @ keys t.shed)
  in
  List.iter
    (fun conn ->
      let get tbl = Option.value (Hashtbl.find_opt tbl conn) ~default:0 in
      let h = get t.held and r = get t.released and d = get t.dropped in
      let s = get t.shed in
      if h <> r + d + s then
        violate t "queue_drain"
          ~seq:(Option.value (Hashtbl.find_opt t.conn_last_seq conn)
                  ~default:t.last_seq)
          ~span:Telemetry.Span.none ~at:t.last_at
          (Printf.sprintf
             "%s: %d ACK(s) held but only %d released + %d dropped + %d \
              shed — %d vanished from the hold queue"
             conn h r d s (h - (r + d + s))))
    conns

let check_rib_convergence t =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun sn ->
      let cur = Option.value (Hashtbl.find_opt groups sn.sn_group) ~default:[] in
      Hashtbl.replace groups sn.sn_group (sn :: cur))
    t.snapshots;
  Sim.Det.iter_sorted ~compare:String.compare
    (fun group sns ->
      match sns with
      | [] | [ _ ] -> ()
      | first :: rest ->
          if
            List.exists
              (fun sn -> not (String.equal sn.sn_digest first.sn_digest))
              rest
          then
            let seq = List.fold_left (fun a sn -> max a sn.sn_seq) 0 sns in
            violate t "rib_convergence" ~seq ~span:Telemetry.Span.none
              ~at:t.last_at
              (Printf.sprintf "%s: RIB views disagree: %s" group
                 (String.concat "; "
                    (List.map
                       (fun sn ->
                         Printf.sprintf "%s=%s (%d prefixes)" sn.sn_node
                           sn.sn_digest sn.sn_size)
                       (List.rev sns)))))
    groups

(* Every degraded instance must have re-armed by end of run: a heal the
   fleet never noticed (or a probe that died with its old container) is
   exactly the silent-degradation failure mode Fig. 7 polices. *)
let check_fleet_rearm t =
  Sim.Det.iter_sorted ~compare:String.compare
    (fun instance () ->
      let region =
        Option.value (Hashtbl.find_opt t.fl_region_of instance) ~default:"?"
      in
      violate t "fleet_slo" ~seq:t.last_seq ~span:Telemetry.Span.none
        ~at:t.last_at
        (Printf.sprintf
           "instance %s (region %s) still degraded at end of run — never \
            re-armed after heal"
           instance region))
    t.fl_degraded

let finalize t =
  (match t.sub with
  | Some s ->
      Telemetry.Bus.unsubscribe s;
      t.sub <- None
  | None -> ());
  check_queue_drain t;
  check_rib_convergence t;
  check_fleet_rearm t;
  let by_checker = violations t in
  List.map
    (fun name ->
      match List.filter (fun v -> String.equal v.checker name) by_checker with
      | [] -> (name, Pass)
      | vs -> (name, Violations vs))
    names

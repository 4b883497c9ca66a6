(* Per-round accounting: wall time and laps of the set-up and timed
   sections, allocation, simulated time, registry counts,
   wrapped harness-side calls and, in a traced run, engine dispatch cost
   grouped by layer.

   Everything here is read through public observation points only:
   [Prof.Clock], [Gc], [Sim.Engine.global_processed_events], the engine's
   trace hook, [Telemetry.Registry] counters and [Prof.Profiler]. *)

let now = Prof.Clock.now_s

(* Registry counters read after every timed section. [Chaos.Runner] and
   [Fleet.Campaign] reset telemetry on entry, so counts are taken per
   section and summed, never read once at the end of a round. *)
let counter_names =
  [
    "bgp.updates_in";
    "bgp.msgs_in";
    "bgp.msgs_out";
    "tcp.segments_out";
    "tcp.retransmits";
    "replicator.rx_replicated";
    "replicator.acks_held";
    "replicator.store_retries";
    "bfd.packets_out";
    "orch.migrations";
    "telemetry.bus_dropped";
  ]

(* Engine labels grouped into the repo's layers by their prefix. Labels
   outside every group ("main" and other harness-scheduled events) still
   count as dispatch time, just not towards a named layer. *)
let layers =
  [
    ("bgp", [ "bgp" ]);
    ("tcp", [ "tcp" ]);
    ("netsim", [ "net"; "rpc" ]);
    ("store", [ "store" ]);
    ("replicator", [ "repl" ]);
    ("app", [ "app"; "deploy" ]);
    ("orch", [ "orch" ]);
    ("bfd", [ "bfd" ]);
    ("fleet", [ "fleet" ]);
  ]

let layer_of_label label =
  let prefix =
    match String.index_opt label '.' with Some i -> String.sub label 0 i | None -> label
  in
  List.find_map (fun (layer, prefixes) -> if List.mem prefix prefixes then Some layer else None) layers

type layer_acc = {
  mutable l_events : int;
  mutable l_wall_s : float;
  mutable l_alloc_bytes : float;
  mutable l_dwell_s : float;
}

type t = {
  trace : bool;
  mutable timed_s : float;
  mutable sim_s : float;
  mutable alloc_bytes : float;
  mutable events : int;
  counts : (string, int) Hashtbl.t;
  mutable originate_s : float;
  mutable originate_timed_s : float;
  mutable originate_bytes : float;
  mutable originate_routes : int;
  mutable dispatch_s : float;
  layer_accs : (string * layer_acc) list;
  mutable pending_peak : int;
  mutable laps : float list;  (** The current timed section's laps, newest first. *)
  mutable lap_t : float;
  mutable lap_words : float;
}

let create ~trace =
  {
    trace;
    timed_s = 0.;
    sim_s = 0.;
    alloc_bytes = 0.;
    events = 0;
    counts = Hashtbl.create 16;
    originate_s = 0.;
    originate_timed_s = 0.;
    originate_bytes = 0.;
    originate_routes = 0;
    dispatch_s = 0.;
    layer_accs =
      List.map
        (fun (l, _) -> (l, { l_events = 0; l_wall_s = 0.; l_alloc_bytes = 0.; l_dwell_s = 0. }))
        layers;
    pending_peak = 0;
    laps = [];
    lap_t = 0.;
    lap_words = 0.;
  }

let count t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)
let counter_value name = Telemetry.Registry.value (Telemetry.Registry.counter name)

(* Laps. A section is cut at the first event dispatch (or harness-side
   origination) after every [words_per_lap] words of minor-heap allocation.
   The simulation is deterministic, so lap k of an operation does the
   same work in every round, and the suite keeps each lap's fastest
   round: most laps last 1 to 10 ms, short enough that some round runs
   each one while no co-tenant slows the host. *)
let words_per_lap = 65_536.

(* The meter whose section is running, for the engine hook. *)
let timing : t option ref = ref None

let lap t =
  let w = Gc.minor_words () in
  if w -. t.lap_words >= words_per_lap then begin
    let now = now () in
    t.laps <- (now -. t.lap_t) :: t.laps;
    t.lap_t <- now;
    t.lap_words <- w
  end

let on_dispatch ~eng:_ ~id:_ ~parent:_ ~label:_ ~sched_at:_ ~exec_at:_ =
  match !timing with Some t -> lap t | None -> ()

(* Runs [f] as one lapped section, adding its allocation to the round:
   returns its result, laps and wall time. *)
let lapped t f =
  let a0 = Gc.allocated_bytes () in
  t.laps <- [];
  t.lap_words <- Gc.minor_words ();
  timing := Some t;
  Sim.Engine.set_trace_hook (Some on_dispatch);
  let t0 = now () in
  t.lap_t <- t0;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Sim.Engine.set_trace_hook None;
        timing := None)
      f
  in
  let t1 = now () in
  let laps = Array.of_list (List.rev ((t1 -. t.lap_t) :: t.laps)) in
  t.alloc_bytes <- t.alloc_bytes +. (Gc.allocated_bytes () -. a0);
  (r, laps, t1 -. t0)

(* The set-up section of an operation: everything built before its
   timed phase. *)
let setup t f =
  let r, laps, _ = lapped t f in
  (r, laps)

(* A timed section: its wall time, allocation and engine events count
   towards the round; its laps and registry counts are returned (and the
   counts summed into the round) so a workload can keep them per
   operation. *)
let timed t f =
  Telemetry.Registry.reset_values ();
  if t.trace then Prof.Profiler.reset ();
  let e0 = Sim.Engine.global_processed_events () in
  let orig0 = t.originate_s in
  let r, laps, dt = lapped t f in
  t.timed_s <- t.timed_s +. dt;
  t.originate_timed_s <- t.originate_timed_s +. (t.originate_s -. orig0);
  t.events <- t.events + (Sim.Engine.global_processed_events () - e0);
  let counts = List.map (fun n -> (n, counter_value n)) counter_names in
  List.iter (fun (n, v) -> Hashtbl.replace t.counts n (count t n + v)) counts;
  if t.trace then
    List.iter
      (fun (st : Prof.Profiler.stat) ->
        t.dispatch_s <- t.dispatch_s +. st.wall_s;
        match layer_of_label st.label with
        | None -> ()
        | Some l ->
            let acc = List.assoc l t.layer_accs in
            acc.l_events <- acc.l_events + st.events;
            acc.l_wall_s <- acc.l_wall_s +. st.wall_s;
            acc.l_alloc_bytes <- acc.l_alloc_bytes +. st.alloc_bytes;
            acc.l_dwell_s <- acc.l_dwell_s +. st.dwell_s)
      (Prof.Profiler.stats ());
  (r, laps, counts)

(* Harness-side work the engine profiler cannot see: route origination
   runs synchronously in the caller, outside any engine event. *)
let wrap_originate t ~routes f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  t.originate_s <- t.originate_s +. dt;
  (match !timing with Some m when m == t -> lap t | _ -> ());
  t.originate_bytes <- t.originate_bytes +. (Gc.allocated_bytes () -. a0);
  t.originate_routes <- t.originate_routes + routes;
  r

let originate t spk ~vrf ?attrs prefixes =
  wrap_originate t ~routes:(List.length prefixes) (fun () -> Bgp.Speaker.originate spk ~vrf ?attrs prefixes)

let add_sim t span = t.sim_s <- t.sim_s +. Sim.Time.to_sec_f span
let sample_pending t eng = t.pending_peak <- max t.pending_peak (Sim.Engine.pending_events eng)

(* Runs [eng] in 50 ms slices until [cond] holds or [deadline] passes,
   as the Figure 6 drivers do. *)
let run_until_cond eng ~deadline cond =
  let rec loop () =
    if cond () then true
    else if Sim.Engine.now eng >= deadline then false
    else begin
      Sim.Engine.run_until eng (min deadline (Sim.Time.add (Sim.Engine.now eng) (Sim.Time.ms 50)));
      loop ()
    end
  in
  loop ()

(* Isolated per-layer drivers, fed with the workload's own route set.

   Each driver calls one layer's public entry point in a loop, outside
   any deployment, and reports wall time and allocation per natural unit
   (per UPDATE, per route, per store record, per KB of stream, per
   engine event). A driver repeats until it has run for a minimum wall
   time and reports the fastest repetition (the suite's noise model), so
   short route sets (chaos, fleet) are measured as steadily as long
   ones. Every driver checks
   what its layer returned; a failed check is reported like any other
   failed output. *)

open Sim
module Keys = Tensor.Keys
module Replicator = Tensor.Replicator

let section f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Meter.now () in
  let r = f () in
  (r, Meter.now () -. t0, Gc.allocated_bytes () -. a0)

(* [run] performs one repetition and returns, per measured quantity, its
   name, its unit count, wall seconds and allocated bytes. The result is
   the least wall per unit over the repetitions and the allocation per
   unit of the last one (allocation repeats exactly once one-time table
   growth is behind). *)
let repeat ?(min_s = 0.2) ?(min_reps = 3) run =
  let rec go reps total acc =
    if reps >= min_reps && total >= min_s then acc
    else begin
      let rows = run () in
      let total =
        total +. List.fold_left (fun s (_, _, dt, _) -> s +. dt) 0. rows
      in
      go (reps + 1) total (rows :: acc)
    end
  in
  match go 0 0. [] with
  | [] -> []
  | last :: _ as reps ->
      List.map
        (fun (name, units, _, bytes) ->
          let per_unit =
            List.map
              (fun rows ->
                List.fold_left
                  (fun acc (n, u, dt, _) ->
                    if String.equal n name then dt /. u else acc)
                  nan rows)
              reps
          in
          (name, List.fold_left Float.min infinity per_unit, bytes /. units))
        last

(* --- Inputs --------------------------------------------------------------- *)

(* UPDATEs as a speaker would pack them: one attribute set per message,
   as many NLRI as fit in the 4096-byte maximum. *)
let updates (routes : Workloads.routes) =
  let rec take k acc = function
    | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  List.concat_map
    (fun (attrs, pfxs) ->
      let rec split acc k = function
        | [] -> List.rev acc
        | l -> (
            let chunk, rest = take k [] l in
            let u =
              Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri = chunk }
            in
            match Bgp.Msg.encode u with
            | _ -> split (u :: acc) k rest
            | exception Invalid_argument _ -> split acc (max 1 (k * 9 / 10)) l)
      in
      split [] 1_000 pfxs)
    routes

(* One path per prefix, first announcement wins: the Loc-RIB the route
   set converges to. *)
let dedupe (routes : Workloads.routes) =
  let seen = Hashtbl.create 4096 in
  List.concat_map
    (fun (attrs, pfxs) ->
      List.filter_map
        (fun p ->
          if Hashtbl.mem seen p then None
          else begin
            Hashtbl.add seen p ();
            Some (p, attrs)
          end)
        pfxs)
    routes

let source =
  {
    Bgp.Rib.key = "perfsuite";
    peer_asn = 65_010;
    peer_addr = Netsim.Addr.of_string "192.0.2.1";
    router_id = Netsim.Addr.of_string "192.0.2.1";
    ebgp = true;
  }

let service = "perfsuite"

(* A replicator wired to a store server one 100 µs link away, in a fresh
   engine: the replication path without a BGP session around it. *)
let store_env () =
  let eng = Engine.create () in
  let net = Netsim.Network.create eng in
  let dut = Netsim.Network.add_node net "dut" in
  let store_node = Netsim.Network.add_node net "store" in
  ignore (Netsim.Network.connect net ~delay:(Time.us 100) dut store_node);
  let server = Store.Server.create store_node in
  let client = Store.Client.create dut ~server:(Store.Server.addr server) in
  (eng, server, client)

let replicator_env () =
  let eng, server, client = store_env () in
  let cid = Keys.conn_id ~service ~vrf:"v0" in
  let r =
    Replicator.create ~engine:eng ~client ~conn_id:cid ~service ()
  in
  (eng, server, r, cid)

(* --- Drivers ---------------------------------------------------------------- *)

let msg_drivers ~fail msgs =
  let frames = List.map Bgp.Msg.encode msgs in
  let n = float_of_int (List.length msgs) in
  let routes = List.fold_left (fun s m -> s + Bgp.Msg.update_count m) 0 msgs in
  let decoded =
    List.fold_left
      (fun s f ->
        match Bgp.Msg.decode f with
        | Ok m -> s + Bgp.Msg.update_count m
        | Error _ -> s)
      0 frames
  in
  if decoded <> routes then
    fail (Printf.sprintf "decode returned %d routes of %d" decoded routes);
  let stream = String.concat "" frames in
  let chunks =
    List.init
      ((String.length stream + 1459) / 1460)
      (fun i ->
        String.sub stream (i * 1460) (min 1460 (String.length stream - (i * 1460))))
  in
  let framed = ref 0 in
  let rows =
    repeat (fun () ->
        let (), enc_s, enc_b =
          section (fun () -> List.iter (fun m -> ignore (Bgp.Msg.encode m)) msgs)
        in
        let (), dec_s, dec_b =
          section (fun () -> List.iter (fun f -> ignore (Bgp.Msg.decode f)) frames)
        in
        let fr = Bgp.Msg.Framer.create () in
        let (), fr_s, fr_b =
          section (fun () ->
              List.iter
                (fun c -> framed := !framed + List.length (Bgp.Msg.Framer.push fr c))
                chunks)
        in
        let kb = float_of_int (String.length stream) /. 1024. in
        [
          ("msg.encode", n, enc_s, enc_b);
          ("msg.decode", n, dec_s, dec_b);
          ("msg.framer", kb, fr_s, fr_b);
        ])
  in
  if !framed mod List.length msgs <> 0 then
    fail "framer returned a partial message set";
  rows

let rib_drivers ~fail routes =
  let n = List.length routes in
  let reannounce =
    List.map
      (fun (p, (a : Bgp.Attrs.t)) ->
        (p, Bgp.Attrs.with_med a (Some (1 + Option.value ~default:0 a.med))))
      routes
  in
  repeat (fun () ->
      let rib = Bgp.Rib.create () in
      let pass l =
        section (fun () ->
            List.iter (fun (p, a) -> ignore (Bgp.Rib.update rib source p a)) l)
      in
      let (), ins_s, ins_b = pass (List.map (fun (p, a) -> (p, Some a)) routes) in
      let best, fold_s, fold_b =
        section (fun () -> Bgp.Rib.fold_best rib ~init:0 ~f:(fun k _ _ -> k + 1))
      in
      let (), re_s, re_b = pass (List.map (fun (p, a) -> (p, Some a)) reannounce) in
      let (), wd_s, wd_b = pass (List.map (fun (p, _) -> (p, None)) routes) in
      if best <> n || Bgp.Rib.size rib <> 0 then
        fail (Printf.sprintf "rib held %d of %d routes, %d after withdrawal" best n
                (Bgp.Rib.size rib));
      [
        ( "rib.update",
          float_of_int (3 * n),
          ins_s +. re_s +. wd_s,
          ins_b +. re_b +. wd_b );
        ("rib.fold_best", 1., fold_s, fold_b);
      ])

let replicator_drivers ~fail ~msgs ~routes =
  let frames = List.map Bgp.Msg.encode msgs in
  let n_msgs = List.length msgs and n_routes = List.length routes in
  let changes =
    List.map
      (fun (p, attrs) ->
        Bgp.Rib.Best_changed (p, { Bgp.Rib.source; attrs; stale = false }))
      routes
  in
  repeat (fun () ->
      let eng, server, r, cid = replicator_env () in
      let ack = ref 1 in
      let (), rx_s, rx_b =
        section (fun () ->
            List.iter2
              (fun m f ->
                ack := !ack + String.length f;
                Replicator.on_rx_message r m ~inferred_ack:!ack)
              msgs frames)
      in
      let (), drain_s, drain_b = section (fun () -> Engine.run eng) in
      let stored = List.length (Store.Server.keys_with_prefix server (Keys.in_prefix cid)) in
      if stored <> n_msgs then
        fail (Printf.sprintf "store holds %d of %d replicated messages" stored n_msgs);
      let (), rib_s, rib_b =
        section (fun () -> List.iter (Replicator.on_rib_change r ~vrf:"v0") changes)
      in
      Engine.run eng;
      let checkpointed =
        List.length (Store.Server.keys_with_prefix server (Keys.rib_prefix ~service))
      in
      if checkpointed <> n_routes then
        fail (Printf.sprintf "store holds %d of %d checkpoints" checkpointed n_routes);
      let released = ref 0 in
      let (), tx_s, tx_b =
        section (fun () ->
            List.iter
              (fun f -> Replicator.on_tx_message r ~raw:f ~release:(fun () -> incr released))
              frames)
      in
      Engine.run eng;
      if !released <> n_msgs then
        fail (Printf.sprintf "%d of %d delayed sends released" !released n_msgs);
      [
        ("replicator.on_rx_message", float_of_int n_msgs, rx_s, rx_b);
        ("store.drain", float_of_int n_msgs, drain_s, drain_b);
        ("replicator.on_rib_change", float_of_int n_routes, rib_s, rib_b);
        ("replicator.on_tx_message", float_of_int n_msgs, tx_s, tx_b);
      ])

let store_drivers ~fail routes =
  let records =
    List.map
      (fun (p, a) ->
        (Keys.rib_key ~service ~vrf:"v0" p, Keys.encode_rib_entry source p a))
      routes
  in
  let n = List.length records in
  let rec batches acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | r :: rest ->
        if k = 64 then batches (List.rev cur :: acc) [ r ] 1 rest
        else batches acc (r :: cur) (k + 1) rest
  in
  let batches = batches [] [] 0 records in
  repeat (fun () ->
      let eng, _, client = store_env () in
      let acked = ref 0 in
      let (), set_s, set_b =
        section (fun () ->
            List.iter
              (fun b ->
                Store.Client.set client b (function
                  | Ok () -> acked := !acked + List.length b
                  | Error `Timeout -> ()))
              batches;
            Engine.run eng)
      in
      let scanned = ref (-1) in
      let (), scan_s, scan_b =
        section (fun () ->
            Store.Client.scan client ~prefix:(Keys.rib_prefix ~service) (function
              | Ok l -> scanned := List.length l
              | Error `Timeout -> ());
            Engine.run eng)
      in
      if !acked <> n || !scanned <> n then
        fail (Printf.sprintf "store acked %d and scanned %d of %d records" !acked !scanned n);
      [
        ("store.set", float_of_int n, set_s, set_b);
        ("store.scan", float_of_int (max 1 !scanned), scan_s, scan_b);
      ])

(* The event heap at the depth the workload's engine reached: [pending]
   far-future events stay queued while batches of near events are
   scheduled and then cancelled (the cancelled entries are popped by the
   following run, which is part of lazy cancellation's cost) or
   dispatched. *)
let engine_drivers ~fail ~pending =
  let batch = 1_024 and batches = 64 in
  let noop () = () in
  let fresh () =
    let eng = Engine.create () in
    for i = 1 to pending do
      ignore (Engine.schedule_after eng (Time.sec 1_000_000 + i) noop)
    done;
    eng
  in
  let near i = Time.us (1 + (i * 7_919 mod 997)) in
  repeat (fun () ->
      let eng = fresh () in
      let (), sc_s, sc_b =
        section (fun () ->
            for _ = 1 to batches do
              let hs = Array.init batch (fun i -> Engine.schedule_after eng (near i) noop) in
              Array.iter Engine.cancel hs;
              Engine.run_for eng (Time.ms 1)
            done)
      in
      let eng = fresh () in
      let e0 = Engine.processed_events eng in
      let (), ds_s, ds_b =
        section (fun () ->
            for _ = 1 to batches do
              for i = 0 to batch - 1 do
                ignore (Engine.schedule_after eng (near i) noop)
              done;
              Engine.run_for eng (Time.ms 1)
            done)
      in
      let ran = Engine.processed_events eng - e0 in
      if ran <> batch * batches then
        fail (Printf.sprintf "engine dispatched %d of %d events" ran (batch * batches));
      let ops = float_of_int (batch * batches) in
      [
        ("engine.schedule_cancel", ops, sc_s, sc_b);
        ("engine.dispatch", ops, ds_s, ds_b);
      ])

(* The profiler's cost per event outside the samples it books (the GC
   statistics reads around each sample): a no-op event loop run with and
   without the profiler attached, less the time the profiler booked to
   the events themselves. Fastest of five runs each. Call it with the
   profiler detached. *)
let profiler_cost_per_event () =
  let n = 100_000 in
  let loop () =
    let eng = Engine.create () in
    for i = 1 to n do
      ignore (Engine.schedule_after eng (Time.us i) ignore)
    done;
    Prof.Profiler.reset ();
    let t0 = Meter.now () in
    Engine.run eng;
    Meter.now () -. t0 -. Prof.Profiler.total_wall_s ()
  in
  let best () = List.fold_left Float.min infinity (List.init 5 (fun _ -> loop ())) in
  let plain = best () in
  Prof.Profiler.attach ();
  let profiled = best () in
  Prof.Profiler.detach ();
  Float.max 0. ((profiled -. plain) /. float_of_int n)

(* All drivers for one workload, as (metric name, value, unit). *)
let run ~fail ~(routes : Workloads.routes) ~pending =
  let msgs = updates routes in
  let rib_routes = dedupe routes in
  let find rows name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) rows with
    | Some (_, s, b) -> (s, b)
    | None -> (nan, nan)
  in
  let msg = msg_drivers ~fail msgs in
  let rib = rib_drivers ~fail rib_routes in
  let repl = replicator_drivers ~fail ~msgs ~routes:rib_routes in
  let store = store_drivers ~fail rib_routes in
  let eng = engine_drivers ~fail ~pending:(max 1 pending) in
  let wall rows name metric ~scale unit_ =
    let s, _ = find rows name in
    (metric, s *. scale, unit_)
  in
  let kb rows name metric =
    let _, b = find rows name in
    (metric, b /. 1024., "KB")
  in
  [
    wall msg "msg.encode" "msg.encode_us_per_update" ~scale:1e6 "us";
    kb msg "msg.encode" "msg.encode_kb_per_update";
    wall msg "msg.decode" "msg.decode_us_per_update" ~scale:1e6 "us";
    kb msg "msg.decode" "msg.decode_kb_per_update";
    wall msg "msg.framer" "msg.framer_us_per_kb" ~scale:1e6 "us";
    wall rib "rib.update" "rib.update_us_per_route" ~scale:1e6 "us";
    kb rib "rib.update" "rib.update_kb_per_route";
    wall rib "rib.fold_best" "rib.fold_best_ms" ~scale:1e3 "ms";
    wall repl "replicator.on_rx_message" "replicator.on_rx_message_us" ~scale:1e6 "us";
    kb repl "replicator.on_rx_message" "replicator.on_rx_message_kb";
    wall repl "replicator.on_rib_change" "replicator.on_rib_change_us" ~scale:1e6 "us";
    kb repl "replicator.on_rib_change" "replicator.on_rib_change_kb";
    wall repl "replicator.on_tx_message" "replicator.on_tx_message_us" ~scale:1e6 "us";
    kb repl "replicator.on_tx_message" "replicator.on_tx_message_kb";
    wall repl "store.drain" "store.drain_us_per_record" ~scale:1e6 "us";
    wall store "store.set" "store.set_us_per_record" ~scale:1e6 "us";
    wall store "store.scan" "store.scan_us_per_record" ~scale:1e6 "us";
    wall eng "engine.schedule_cancel" "engine.schedule_cancel_ns" ~scale:1e9 "ns";
    wall eng "engine.dispatch" "engine.dispatch_ns_per_event" ~scale:1e9 "ns";
  ]

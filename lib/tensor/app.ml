open Sim
open Netsim

let m_catchup_msgs = Telemetry.Registry.counter "replicator.catchup_msgs"
let m_catchup_bytes = Telemetry.Registry.counter "replicator.catchup_bytes"
let m_catchup_s = Telemetry.Registry.histogram "replicator.catchup_s"

type vrf_spec = {
  vrf : string;
  vip : Addr.t;
  peer_addr : Addr.t;
  peer_asn : int option;
  passive : bool;
  run_bfd : bool;
  ibgp_peers : (Addr.t * bool) list;
}

let vrf_spec ~vrf ~vip ~peer_addr ?peer_asn ?(passive = false)
    ?(run_bfd = true) ?(ibgp_peers = []) () =
  {
    vrf;
    vip;
    peer_addr;
    peer_asn;
    passive;
    run_bfd;
    ibgp_peers;
  }

type config = {
  service_id : string;
  store_addr : Addr.t;
  store_replica : Addr.t option;
  store_retry : bool;
  controller_addr : Addr.t option;
  local_asn : int;
  degrade_frac : float;
  vrfs : vrf_spec list;
  replicate : bool;
  ack_hold : bool;
}

let config ~service_id ~store_addr ?store_replica ?(store_retry = false)
    ?controller_addr ~local_asn ?(degrade_frac = 0.) ?(replicate = true)
    ?(ack_hold = true) vrfs =
  if degrade_frac < 0. || degrade_frac >= 1. then
    invalid_arg "App.config: degrade_frac must be in [0, 1)";
  {
    service_id;
    store_addr;
    store_replica;
    store_retry;
    controller_addr;
    local_asn;
    degrade_frac;
    vrfs;
    replicate;
    ack_hold;
  }

type mode = Fresh | Recover

(* Modelled cost of loading the replicated TCP state back into a kernel
   socket (TCP_REPAIR writes, NFQUEUE re-priming) plus the verification
   probe. Our userspace stack resumes instantly, so this constant carries
   the ~1 s "TCP recovery" phase Table 1 reports for the production
   system. *)
let tcp_restore_cost = Time.sec 1

type per_vrf = {
  spec : vrf_spec;
  repl : Replicator.t;
  mutable peer : Bgp.Speaker.peer option;
  mutable bfd : Bfd.session option;
  mutable trimmer : Engine.timer option;
  mutable established : bool;
}

type t = {
  cfg : config;
  cont : Orch.Container.t;
  boot_mode : mode;
  mutable spk : Bgp.Speaker.t option;
  mutable stack : Tcp.stack option;
  mutable client : Store.Client.t option;
  mutable per_vrf : per_vrf list;
  mutable crashed : bool;
  mutable bfd_up_cb : vrf:string -> Bfd.session -> unit;
  mutable recovered_cb : unit -> unit;
  mutable tcp_synced_cb : vrf:string -> unit;
}

let container t = t.cont
let speaker t = t.spk

let find_vrf t vrf =
  List.find_opt (fun pv -> String.equal pv.spec.vrf vrf) t.per_vrf

let replicator t ~vrf =
  match find_vrf t vrf with Some pv -> Some pv.repl | None -> None

let bfd_session t ~vrf =
  match find_vrf t vrf with Some pv -> pv.bfd | None -> None

let session_established t ~vrf =
  match find_vrf t vrf with
  | Some pv -> (
      match pv.peer with
      | Some p -> Bgp.Speaker.peer_state p = Bgp.Session.Established
      | None -> false)
  | None -> false

let on_bfd_up t f = t.bfd_up_cb <- f
let on_recovered t f = t.recovered_cb <- f
let on_tcp_synced t f = t.tcp_synced_cb <- f

let routes t ~vrf =
  match t.spk with
  | Some spk -> (
      try Bgp.Rib.size (Bgp.Speaker.rib spk ~vrf) with Not_found -> 0)
  | None -> 0

let engine t = Node.engine (Orch.Container.node t.cont)

(* --- Shared plumbing -------------------------------------------------------- *)

(* Control records (session metadata, BFD discriminators) must reach the
   store even across transient network trouble: retry until
   acknowledged. *)
let persistent_set t client pairs =
  let rec attempt () =
    if not t.crashed then
      Store.Client.set client ~timeout:(Time.sec 1) pairs (function
        | Ok () -> ()
        | Error `Timeout ->
            ignore
              (Engine.schedule_after (engine t) ~label:"app.store_retry"
                 (Time.ms 200) attempt))
  in
  attempt ()

let hooks_for t =
  (* Only the VRF's external session is NSR-replicated; cluster-internal
     iBGP sessions (joint containers) resync from their dependents. *)
  let repl_of peer =
    let pcfg = Bgp.Speaker.peer_cfg peer in
    match find_vrf t pcfg.Bgp.Speaker.vrf with
    | Some pv
      when Addr.equal pcfg.Bgp.Speaker.remote_addr pv.spec.peer_addr ->
        Some pv.repl
    | Some _ | None -> None
  in
  {
    Bgp.Speaker.on_rx_replicate =
      (fun peer msg ~raw ~inferred_ack ->
        match repl_of peer with
        | Some repl -> Replicator.on_rx_message repl ~raw msg ~inferred_ack
        | None -> ());
    on_tx_replicate =
      (fun peer _msg raw k ->
        match repl_of peer with
        | Some repl -> Replicator.on_tx_message repl ~raw ~release:k
        | None -> k ());
    on_rib_change =
      (fun ~vrf change ->
        match find_vrf t vrf with
        | Some pv -> Replicator.on_rib_change pv.repl ~vrf change
        | None -> ());
    on_updates_applied = (fun ~vrf:_ _ -> ());
    on_rx_applied =
      (fun peer _msg ->
        match repl_of peer with
        | Some repl -> Replicator.on_rx_applied repl
        | None -> ());
  }

(* The stall watchdog's view of the framer fragment (see Replicator). *)
let wire_tail_source t pv =
  Replicator.set_tail_source pv.repl (fun () ->
      if t.crashed then None
      else
        match pv.peer with
        | Some p -> (
            match Bgp.Speaker.peer_session p with
            | Some s -> (
                match Bgp.Session.conn s with
                | Some c ->
                    let tail = Bgp.Session.unparsed_tail s in
                    if String.length tail = 0 then None
                    else
                      let parsed = Bgp.Session.parsed_bytes s in
                      Some
                        ( parsed,
                          Tcp.irs c + 1 + parsed + String.length tail,
                          tail )
                | None -> None)
            | None -> None)
        | None -> None)

let start_trimmer t pv =
  if pv.trimmer = None then
    pv.trimmer <-
      Some
        (Engine.every (engine t) ~label:"app.trimmer" (Time.ms 500) (fun () ->
             if not t.crashed then
               match pv.peer with
               | Some p -> (
                   match Bgp.Speaker.peer_session p with
                   | Some s -> (
                       match Bgp.Session.conn s with
                       | Some c ->
                           Replicator.note_snd_una pv.repl ~iss:(Tcp.iss c)
                             ~snd_una:(Tcp.snd_una c)
                       | None -> ())
                   | None -> ())
               | None -> ()))

let write_meta t pv =
  match (t.client, pv.peer) with
  | Some client, Some p -> (
      match Bgp.Speaker.peer_session p with
      | Some s -> (
          match (Bgp.Session.conn s, Bgp.Session.negotiated s) with
          | Some c, Some neg ->
              let quad = Tcp.quad c in
              let meta =
                {
                  (* The epoch commits the stream key space: recovery
                     reads only the records this meta names. *)
                  Keys.epoch = Replicator.epoch pv.repl;
                  vrf = pv.spec.vrf;
                  local_addr = quad.Tcp.Quad.local_addr;
                  local_port = quad.Tcp.Quad.local_port;
                  peer_addr = quad.Tcp.Quad.remote_addr;
                  peer_port = quad.Tcp.Quad.remote_port;
                  local_asn = t.cfg.local_asn;
                  hold_time = neg.Bgp.Session.hold_time;
                  as4 = neg.Bgp.Session.as4_in_use;
                  iss = Tcp.iss c;
                  irs = Tcp.irs c;
                  mss = Tcp.mss c;
                  rcv_wnd = 400_000;
                  peer_open_raw =
                    Bgp.Msg.encode (Bgp.Msg.Open neg.Bgp.Session.peer_open);
                  peer_supports_gr = neg.Bgp.Session.peer_supports_gr;
                  peer_gr_restart_time = neg.Bgp.Session.peer_gr_restart_time;
                }
              in
              let cid =
                Keys.conn_id ~service:t.cfg.service_id ~vrf:pv.spec.vrf
              in
              persistent_set t client
                [ (Keys.meta_key cid, Keys.encode_meta meta) ]
          | _ -> ())
      | None -> ())
  | _ -> ()

(* Session lifecycle → replication state, shared between fresh bring-up
   and post-recovery resume. Up: key the replicator to the live
   connection's receive stream and persist its metadata. Down: drop the
   replicator back to pass-through so a successor connection's handshake
   is not held against the dead stream's sequence space. *)
let wire_peer_lifecycle t pv peer =
  Bgp.Speaker.on_peer_up peer (fun () ->
      pv.established <- true;
      (match Bgp.Speaker.peer_session peer with
      | Some s -> (
          match Bgp.Session.conn s with
          | Some c -> Replicator.session_established pv.repl ~irs:(Tcp.irs c)
          | None -> ())
      | None -> ());
      (* The held-ACK deadline derives from the *negotiated* hold time:
         the degraded switch must fire well inside the peer's hold timer
         (and the default quarter-fraction also sits inside one keepalive
         interval of slack). *)
      (if t.cfg.degrade_frac > 0. then
         match Bgp.Speaker.peer_session peer with
         | Some s -> (
             match Bgp.Session.negotiated s with
             | Some neg ->
                 Replicator.set_degrade_after pv.repl
                   (Some
                      (Time.of_sec_f
                         (t.cfg.degrade_frac
                         *. float_of_int neg.Bgp.Session.hold_time)))
             | None -> ())
         | None -> ());
      write_meta t pv;
      start_trimmer t pv;
      wire_tail_source t pv);
  Bgp.Speaker.on_peer_down peer (fun _ ->
      pv.established <- false;
      Replicator.session_down pv.repl)

let write_bfd_discs t pv =
  match (t.client, pv.bfd) with
  | Some client, Some session ->
      let cid = Keys.conn_id ~service:t.cfg.service_id ~vrf:pv.spec.vrf in
      persistent_set t client
        [
          ( Keys.bfd_key cid,
            Keys.encode_bfd ~my_disc:(Bfd.my_disc session)
              ~your_disc:(Bfd.your_disc session) );
        ]
  | _ -> ()

let start_bfd t pv ?resume () =
  if pv.spec.run_bfd then begin
    let ep = Bfd.endpoint (Orch.Container.node t.cont) in
    let session =
      Bfd.create_session ep ~local:pv.spec.vip ?resume ~vrf:pv.spec.vrf
        ~remote:pv.spec.peer_addr ()
    in
    pv.bfd <- Some session;
    Bfd.on_state_change session (fun ~old st ->
        match (old, st) with
        | (Bfd.Admin_down | Bfd.Down | Bfd.Init | Bfd.Up), Bfd.Up ->
            write_bfd_discs t pv;
            t.bfd_up_cb ~vrf:pv.spec.vrf session
        | Bfd.Up, Bfd.Down ->
            (* VRF link failure reported to the BGP process via IPC
               (§3.3.2); the BGP session's own timers take it from
               here. *)
            ()
        | Bfd.Up, (Bfd.Admin_down | Bfd.Init) -> ()
        | ( (Bfd.Admin_down | Bfd.Down | Bfd.Init),
            (Bfd.Admin_down | Bfd.Down | Bfd.Init) ) ->
            ());
    if resume <> None then begin
      write_bfd_discs t pv;
      t.bfd_up_cb ~vrf:pv.spec.vrf session
    end
  end

(* Poll until the resumed connection's send stream is fully acknowledged:
   the "TCP recovery" completion instant of Table 1. *)
let watch_tcp_sync ?(span = Telemetry.Span.none) t pv =
  let eng = engine t in
  let rec poll () =
    if not t.crashed then
      match pv.peer with
      | Some p when Bgp.Speaker.peer_state p = Bgp.Session.Established -> (
          match Bgp.Speaker.peer_session p with
          | Some s -> (
              match Bgp.Session.conn s with
              | Some c ->
                  if
                    Tcp.state c = Tcp.Established
                    && Tcp.snd_una c = Tcp.snd_nxt c
                    && Tcp.snd_nxt c > Tcp.iss c + 1
                  then begin
                    Telemetry.Span.finish eng span;
                    (* The stream is resynchronized; audit Adj-RIB-Out so
                       any UPDATE the failed primary generated but never
                       made durable (and therefore never sent) is
                       regenerated from the checkpointed table. *)
                    (match t.spk with
                    | Some spk -> Bgp.Speaker.resync_adj_out spk p
                    | None -> ());
                    t.tcp_synced_cb ~vrf:pv.spec.vrf
                  end
                  else
                    ignore
                      (Engine.schedule_after eng ~label:"app.sync_poll"
                         (Time.ms 50) poll)
              | None ->
                  ignore
                    (Engine.schedule_after eng ~label:"app.sync_poll"
                       (Time.ms 50) poll))
          | None -> ())
      | Some _ | None -> (* session gone: stop polling *) ()
  in
  poll ()

(* --- Degraded-store survival ---------------------------------------------------

   The store healed while a session ran in degraded pass-through: re-arm
   NSR without disturbing the peer. Wait for a quiescent send stream
   (nothing unacknowledged, so the fresh epoch needs no out| records),
   write the new epoch's meta + cursor baseline in one batch, flip the
   replicator back to protected mode, then audit Adj-RIB-Out and rewrite
   the routing-table checkpoint the degraded window left stale. Records
   of the pre-outage epoch are left behind as garbage; after a store
   crash (RAM wiped) there are none, and after a partition they stay
   bounded by the trimming that ran before the outage. *)
let rearm_from_degraded t pv =
  let eng = engine t in
  let service = t.cfg.service_id in
  let recheckpoint spk client =
    Store.Client.scan client ~prefix:(Keys.rib_prefix ~service) (fun res ->
        if (not t.crashed) && not (Replicator.degraded pv.repl) then begin
          let fresh =
            try
              let table = Bgp.Speaker.rib spk ~vrf:pv.spec.vrf in
              Bgp.Rib.fold_best table ~init:[] ~f:(fun acc pfx path ->
                  ( Keys.rib_key ~service ~vrf:pv.spec.vrf pfx,
                    Keys.encode_rib_entry path.Bgp.Rib.source pfx
                      path.Bgp.Rib.attrs )
                  :: acc)
            with Not_found -> []
          in
          let fresh_keys = List.map fst fresh in
          let stale =
            match res with
            | Ok pairs ->
                List.filter_map
                  (fun (key, _) ->
                    match Keys.vrf_prefix_of_rib_key ~service key with
                    | Some (v, _)
                      when String.equal v pv.spec.vrf
                           && not (List.mem key fresh_keys) ->
                        Some key
                    | _ -> None)
                  pairs
            | Error `Timeout -> []
          in
          if stale <> [] then Store.Client.del client stale (fun _ -> ());
          if fresh <> [] then persistent_set t client fresh
        end)
  in
  let rec poll () =
    if (not t.crashed) && Replicator.degraded pv.repl then
      match (t.client, t.spk, pv.peer) with
      | Some client, Some spk, Some p
        when Bgp.Speaker.peer_state p = Bgp.Session.Established -> (
          match Bgp.Speaker.peer_session p with
          | Some s -> (
              match (Bgp.Session.conn s, Bgp.Session.negotiated s) with
              | Some c, Some neg ->
                  if Tcp.snd_una c = Tcp.snd_nxt c then
                    rearm client spk p s c neg
                  else retry ()
              | _ -> ())
          | None -> ())
      | _ -> () (* session gone: session_down already cleared degraded *)
  and retry () =
    ignore (Engine.schedule_after eng ~label:"app.rearm_poll" (Time.ms 50) poll)
  and rearm client spk p s c neg =
    let epoch = Replicator.prepare_rearm pv.repl in
    let cid = Keys.conn_id ~service ~vrf:pv.spec.vrf in
    let ecid = Keys.epoch_cid cid epoch in
    let parsed = Bgp.Session.parsed_bytes s in
    let tail = Bgp.Session.unparsed_tail s in
    let snd_nxt0 = Tcp.snd_nxt c in
    let watermark = Tcp.irs c + 1 + parsed + String.length tail in
    let stream_offset = snd_nxt0 - (Tcp.iss c + 1) in
    let quad = Tcp.quad c in
    let meta =
      {
        Keys.epoch;
        vrf = pv.spec.vrf;
        local_addr = quad.Tcp.Quad.local_addr;
        local_port = quad.Tcp.Quad.local_port;
        peer_addr = quad.Tcp.Quad.remote_addr;
        peer_port = quad.Tcp.Quad.remote_port;
        local_asn = t.cfg.local_asn;
        hold_time = neg.Bgp.Session.hold_time;
        as4 = neg.Bgp.Session.as4_in_use;
        iss = Tcp.iss c;
        irs = Tcp.irs c;
        mss = Tcp.mss c;
        rcv_wnd = 400_000;
        peer_open_raw = Bgp.Msg.encode (Bgp.Msg.Open neg.Bgp.Session.peer_open);
        peer_supports_gr = neg.Bgp.Session.peer_supports_gr;
        peer_gr_restart_time = neg.Bgp.Session.peer_gr_restart_time;
      }
    in
    let part_written = String.length tail > 0 in
    let pairs =
      [
        (Keys.meta_key cid, Keys.encode_meta meta);
        (Keys.ack_key ecid, string_of_int watermark);
        (Keys.outtrim_key ecid, string_of_int stream_offset);
      ]
    in
    let pairs =
      if part_written then
        (Keys.part_key ecid, Keys.encode_part ~offset:parsed ~bytes:tail)
        :: pairs
      else pairs
    in
    let rec put () =
      if (not t.crashed) && Replicator.degraded pv.repl then
        Store.Client.set client ~timeout:(Time.sec 1) pairs (function
          | Ok () ->
              if (not t.crashed) && Replicator.degraded pv.repl then begin
                if
                  Tcp.snd_nxt c = snd_nxt0
                  && Tcp.snd_una c = snd_nxt0
                  && Bgp.Session.parsed_bytes s = parsed
                  && String.length (Bgp.Session.unparsed_tail s)
                     = String.length tail
                then begin
                  Replicator.complete_rearm pv.repl ~watermark ~stream_offset
                    ~part_written;
                  (* Any UPDATE generated while degraded was sent without
                     a checkpoint behind it: regenerate Adj-RIB-Out from
                     the table, then rewrite the rib| checkpoint. *)
                  Bgp.Speaker.resync_adj_out spk p;
                  recheckpoint spk client
                end
                else
                  (* The stream moved while the baseline was in flight:
                     the written cursors are already stale. Snapshot
                     again (under a fresh epoch). *)
                  retry ()
              end
          | Error `Timeout ->
              ignore
                (Engine.schedule_after eng ~label:"app.store_retry"
                   (Time.ms 200) put))
    in
    put ()
  in
  poll ()

(* --- Fresh bootstrap --------------------------------------------------------- *)

let bootstrap_fresh t spk stack =
  List.iter
    (fun pv ->
      let spec = pv.spec in
      let pc =
        {
          (Bgp.Speaker.default_peer_config ~vrf:spec.vrf
             ~remote_addr:spec.peer_addr ())
          with
          Bgp.Speaker.remote_asn = spec.peer_asn;
          local_addr = Some spec.vip;
          passive = spec.passive;
        }
      in
      let peer = Bgp.Speaker.add_peer spk pc in
      pv.peer <- Some peer;
      (match Tcp.output_chain stack with
      | Some chain ->
          Replicator.attach_output_chain pv.repl chain ~local:spec.vip
            ~remote:spec.peer_addr
      | None -> ());
      wire_peer_lifecycle t pv peer;
      (* Cluster-internal iBGP sessions (joint containers, §3.2.4). *)
      List.iter
        (fun (addr, passive) ->
          ignore
            (Bgp.Speaker.add_peer spk
               {
                 (Bgp.Speaker.default_peer_config ~vrf:spec.vrf
                    ~remote_addr:addr ())
                 with
                 Bgp.Speaker.remote_asn = Some t.cfg.local_asn;
                 local_addr = Some spec.vip;
                 passive;
               }))
        spec.ibgp_peers;
      start_bfd t pv ())
    t.per_vrf;
  Bgp.Speaker.start spk

(* --- Recovery bootstrap -------------------------------------------------------- *)

(* Everything recovery needs from the store for one connection, parsed. *)
type recovered_state = {
  r_meta : Keys.meta;
  r_watermark : int;
  r_outtrim : int;
  r_bfd : (int * int) option;
  r_part : (int * string) option; (* replicated partial-frame tail *)
  r_out : (int * string) list; (* (offset, raw), sorted *)
  r_in : (int * string * string) list; (* (seq, key, raw), sorted *)
}

(* Stream-scoped records are read under the epoch the meta record names
   ([ecid]); anything a dead predecessor stream left behind lives under
   another epoch and is invisible here. *)
let parse_recovery ecid ~meta:r_meta ~bfd:r_bfd cursor_reads outs ins =
  match cursor_reads with
  | Error `Timeout -> Error "store unreachable"
  | Ok values ->
      let find key = Option.join (List.assoc_opt key values) in
      let r_watermark =
        match Option.bind (find (Keys.ack_key ecid)) int_of_string_opt with
        | Some a -> a
        | None -> r_meta.Keys.irs + 1
      in
      let r_outtrim =
        match
          Option.bind (find (Keys.outtrim_key ecid)) int_of_string_opt
        with
        | Some v -> v
        | None -> 0
      in
      let r_part =
        Option.bind (find (Keys.part_key ecid)) (fun v ->
            match Keys.decode_part v with
            | Ok p -> Some p
            | Error _ -> None)
      in
      let r_out =
        match outs with
        | Error `Timeout -> []
        | Ok pairs ->
            List.filter_map
              (fun (key, v) ->
                match (Keys.offset_of_out_key ecid key, Keys.unhex v) with
                | Some off, Ok raw -> Some (off, raw)
                | _ -> None)
              pairs
            |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      let r_in =
        match ins with
        | Error `Timeout -> []
        | Ok pairs ->
            List.filter_map
              (fun (key, v) ->
                match (Keys.seq_of_in_key ecid key, Keys.decode_in_record v) with
                | Some seq, Ok (_, raw) -> Some (seq, key, raw)
                | _ -> None)
              pairs
            |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
      in
      Ok { r_meta; r_watermark; r_outtrim; r_bfd; r_part; r_out; r_in }

let repair_of_recovered (r : recovered_state) =
  let meta = r.r_meta in
  let iss = meta.Keys.iss in
  let snd_una =
    match r.r_out with
    | (off, _) :: _ -> iss + 1 + off
    | [] -> iss + 1 + r.r_outtrim
  in
  let bytes_written =
    match List.rev r.r_out with
    | (off, raw) :: _ -> off + String.length raw
    | [] -> r.r_outtrim
  in
  ( {
      Tcp.Repair.quad =
        Tcp.Quad.v meta.Keys.local_addr meta.Keys.local_port meta.Keys.peer_addr
          meta.Keys.peer_port;
      mss = meta.Keys.mss;
      rcv_wnd = meta.Keys.rcv_wnd;
      iss;
      irs = meta.Keys.irs;
      snd_una;
      snd_nxt = iss + 1 + bytes_written;
      rcv_nxt = r.r_watermark;
      peer_wnd = 65535;
      unacked = List.map (fun (off, raw) -> (iss + 1 + off, raw)) r.r_out;
    },
    bytes_written )

let resume_from_recovered t spk stack client pv (r : recovered_state) =
  let spec = pv.spec in
  let meta = r.r_meta in
  let repair, bytes_written = repair_of_recovered r in
  match Bgp.Msg.decode meta.Keys.peer_open_raw with
  | Ok (Bgp.Msg.Open peer_open) ->
      let negotiated =
        {
          Bgp.Session.peer_open;
          hold_time = meta.Keys.hold_time;
          peer_supports_gr = meta.Keys.peer_supports_gr;
          peer_gr_restart_time = meta.Keys.peer_gr_restart_time;
          as4_in_use = meta.Keys.as4;
        }
      in
      let pc =
        {
          (Bgp.Speaker.default_peer_config ~vrf:spec.vrf
             ~remote_addr:spec.peer_addr ())
          with
          Bgp.Speaker.remote_asn = Some peer_open.Bgp.Msg.asn;
          local_addr = Some spec.vip;
        }
      in
      (* A valid replicated fragment is exactly the gap between the last
         complete message and the acknowledged watermark; anything else is
         stale and ignored. *)
      let framer_seed =
        match r.r_part with
        | Some (offset, bytes)
          when meta.Keys.irs + 1 + offset + String.length bytes
               = r.r_watermark ->
            bytes
        | Some _ | None -> ""
      in
      let peer =
        Bgp.Speaker.resume_peer spk pc ~repair ~negotiated ~framer_seed ()
      in
      pv.peer <- Some peer;
      pv.established <- true;
      (* The resumed peer needs the same lifecycle wiring as a fresh one:
         without it, a later session loss leaves the replicator armed
         against a dead stream and a re-establishment never re-keys it.
         Attached after [resume_peer], so the import itself (already
         Established) does not clobber [resume_at]'s watermark. *)
      wire_peer_lifecycle t pv peer;
      let in_seq =
        match List.rev r.r_in with (seq, _, _) :: _ -> seq + 1 | [] -> 0
      in
      Replicator.resume_at pv.repl ~epoch:meta.Keys.epoch ~watermark:r.r_watermark ~bytes_written
        ~in_seq ~outtrim:r.r_outtrim
        ~out_records:(List.map (fun (off, raw) -> (off, String.length raw)) r.r_out);
      (match Tcp.output_chain stack with
      | Some chain ->
          Replicator.attach_output_chain pv.repl chain ~local:spec.vip
            ~remote:spec.peer_addr
      | None -> ());
      (* Replay replicated-but-unapplied updates through the normal
         receive path, then trim them from the store. The records hold
         the frames as received, so they decode in the session's AS4
         mode. *)
      let replayed_keys =
        List.map
          (fun (_, key, raw) ->
            (match Bgp.Msg.decode ~as4:meta.Keys.as4 raw with
            | Ok (Bgp.Msg.Update u) -> Bgp.Speaker.replay_update spk peer u
            | Ok _ | Error _ -> ());
            key)
          r.r_in
      in
      if replayed_keys <> [] then
        Store.Client.del client replayed_keys (fun _ -> ());
      start_trimmer t pv;
      wire_tail_source t pv;
      start_bfd t pv ?resume:r.r_bfd ();
      (* The kernel-side TCP_REPAIR restoration takes real time in the
         production system; after it, announce liveness and watch the
         peer re-synchronize. *)
      ignore
        (Engine.schedule_after (engine t) ~label:"app.tcp_restore"
           tcp_restore_cost (fun () ->
             if not t.crashed then begin
               (match Bgp.Speaker.peer_session peer with
               | Some s when Bgp.Session.state s = Bgp.Session.Established ->
                   Bgp.Session.send s Bgp.Msg.Keepalive
               | _ -> ());
               (* Seeded fault: flap one originated prefix after the
                  resume — withdraw now, re-announce shortly after, so
                  the end state is unchanged but the peer observed a
                  withdraw/re-announce pair. *)
               if !Monitor.Faults.flap_on_migration then begin
                 Monitor.Faults.flap_on_migration := false;
                 let vrf = spec.vrf in
                 let local_key = "local/" ^ vrf in
                 let table = Bgp.Speaker.rib spk ~vrf in
                 match
                   Bgp.Rib.fold_best table ~init:None ~f:(fun acc pfx path ->
                       match acc with
                       | Some _ -> acc
                       | None ->
                           if
                             String.equal path.Bgp.Rib.source.Bgp.Rib.key
                               local_key
                           then Some (pfx, path.Bgp.Rib.attrs)
                           else None)
                 with
                 | Some (pfx, attrs) ->
                     Bgp.Speaker.withdraw_origin spk ~vrf [ pfx ];
                     ignore
                       (Engine.schedule_after (engine t) ~label:"app.reoriginate"
                          (Time.ms 200) (fun () ->
                            Bgp.Speaker.originate spk ~vrf ~attrs [ pfx ]))
                 | None -> ()
               end;
               (* Seeded fault: reset the freshly-resumed session's
                  transport (RST) once the stack is steady. Unlike a Cease
                  NOTIFICATION, a transport reset is GR-eligible on both
                  ends — routes stay pinned as stale, the active side
                  auto-reconnects, and End-of-RIB sweeps the tables back
                  to identical — so the one surviving symptom is the reset
                  the remote AS was never supposed to see. *)
               if !Monitor.Faults.peer_reset then begin
                 Monitor.Faults.peer_reset := false;
                 ignore
                   (Engine.schedule_after (engine t) ~label:"app.peer_reset"
                      (Time.sec 2) (fun () ->
                        match Bgp.Speaker.peer_session peer with
                        | Some s
                          when Bgp.Session.state s = Bgp.Session.Established
                          -> (
                            match Bgp.Session.conn s with
                            | Some c -> Tcp.abort c
                            | None -> ())
                        | _ -> ()))
               end;
               let span = Telemetry.Span.start (engine t) "tcp_replay" in
               watch_tcp_sync ~span t pv
             end));
      Ok ()
  | Ok _ -> Error "metadata OPEN is not an OPEN"
  | Error _ -> Error "bad peer OPEN in metadata"

let recover_vrf t spk stack client pv k =
  let cid = Keys.conn_id ~service:t.cfg.service_id ~vrf:pv.spec.vrf in
  let eng = engine t in
  let t0 = Engine.now eng in
  let span = Telemetry.Span.start eng "replica_catchup" in
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit eng
      (Telemetry.Event.Catchup_start
         { service = t.cfg.service_id; vrf = pv.spec.vrf });
  let finish_catchup result =
    (match result with
    | Ok (msgs, bytes) ->
        Telemetry.Registry.add m_catchup_msgs msgs;
        Telemetry.Registry.add m_catchup_bytes bytes;
        Telemetry.Registry.observe m_catchup_s
          (Time.to_sec_f (Time.diff (Engine.now eng) t0));
        if Telemetry.Gate.on () then
          Telemetry.Bus.emit eng
            (Telemetry.Event.Catchup_done
               { service = t.cfg.service_id; vrf = pv.spec.vrf; msgs; bytes })
    | Error _ -> ());
    Telemetry.Span.finish eng span
  in
  (* Two batched point-reads plus two scans: the state download of the
     migration path. The meta record is read first because it names the
     connection epoch, and the stream-scoped cursors (ack/outtrim/part)
     and record scans are only valid under that epoch's key space. *)
  let fail e =
    finish_catchup (Error e);
    k (Error e)
  in
  Store.Client.get client [ Keys.meta_key cid; Keys.bfd_key cid ]
    (fun identity_reads ->
      let find key reads = Option.join (List.assoc_opt key reads) in
      let meta =
        match identity_reads with
        | Error `Timeout -> Error "store unreachable"
        | Ok reads -> (
            match Option.map Keys.decode_meta (find (Keys.meta_key cid) reads) with
            | None -> Error "no session metadata"
            | Some (Error e) -> Error ("bad metadata: " ^ e)
            | Some (Ok m) -> Ok m)
      in
      match meta with
      | Error e -> fail e
      | Ok meta ->
          let bfd =
            match identity_reads with
            | Error `Timeout -> None
            | Ok reads ->
                Option.bind (find (Keys.bfd_key cid) reads) (fun v ->
                    match Keys.decode_bfd v with
                    | Ok discs -> Some discs
                    | Error _ -> None)
          in
          let ecid = Keys.epoch_cid cid meta.Keys.epoch in
          Store.Client.get client
            [ Keys.ack_key ecid; Keys.outtrim_key ecid; Keys.part_key ecid ]
            (fun cursor_reads ->
              Store.Client.scan client ~prefix:(Keys.out_prefix ecid) (fun outs ->
                  Store.Client.scan client ~prefix:(Keys.in_prefix ecid) (fun ins ->
              match parse_recovery ecid ~meta ~bfd cursor_reads outs ins with
              | Error e -> fail e
              | Ok r ->
                  let msgs = List.length r.r_in in
                  let bytes =
                    List.fold_left
                      (fun acc (_, _, raw) -> acc + String.length raw)
                      0 r.r_in
                    + List.fold_left
                        (fun acc (_, raw) -> acc + String.length raw)
                        0 r.r_out
                  in
                  let result = resume_from_recovered t spk stack client pv r in
                  finish_catchup (Ok (msgs, bytes));
                  k result))))


let bootstrap_recover t spk stack client =
  (* Until every connection is imported, the stack knows none of the
     quads: a peer retransmission arriving early would be answered with a
     RST and destroy the very session we are recovering. Prime the OUTPUT
     chain with an RST guard first (the kernel-free analogue of entering
     TCP_REPAIR mode before thawing the socket). *)
  let rst_guard =
    match Tcp.output_chain stack with
    | Some chain ->
        Some
          ( chain,
            Netfilter.add_rule chain (fun pkt ->
                match pkt.Packet.payload with
                | Tcp.Segment.Tcp seg when seg.Tcp.Segment.flags.Tcp.Segment.rst
                  ->
                    Netfilter.Drop
                | _ -> Netfilter.Accept) )
    | None -> None
  in
  let drop_rst_guard () =
    match rst_guard with
    | Some (chain, rule) -> Netfilter.remove_rule chain rule
    | None -> ()
  in
  (* Restore the routing-table checkpoint first (quiet installs), then
     resume every VRF's session. *)
  Store.Client.scan client ~prefix:(Keys.rib_prefix ~service:t.cfg.service_id)
    (fun rib_entries ->
      (match rib_entries with
      (* Seeded fault: ignore the checkpoint — the promoted replica
         starts from an empty table and never converges to the
         master's. *)
      | Ok _ when !Monitor.Faults.skip_rib_restore -> ()
      | Ok pairs ->
          List.iter
            (fun (key, v) ->
              match
                ( Keys.vrf_prefix_of_rib_key ~service:t.cfg.service_id key,
                  Keys.decode_rib_entry v )
              with
              | Some (vrf, _), Ok (src, prefix, attrs) ->
                  Bgp.Speaker.restore_route spk ~vrf src prefix attrs
              | _ -> ())
            pairs
      | Error `Timeout -> ());
      let remaining = ref (List.length t.per_vrf) in
      let one_done _result =
        decr remaining;
        if !remaining = 0 then begin
          drop_rst_guard ();
          t.recovered_cb ()
        end
      in
      if t.per_vrf = [] then begin
        drop_rst_guard ();
        t.recovered_cb ()
      end
      else
        List.iter (fun pv -> recover_vrf t spk stack client pv one_done) t.per_vrf)

(* --- Entry point ---------------------------------------------------------------- *)

let bootstrap t () =
  let node = Orch.Container.node t.cont in
  t.crashed <- false;
  List.iter
    (fun spec -> Orch.Container.assign_service_addr t.cont spec.vip)
    t.cfg.vrfs;
  let stack = Tcp.create_stack node in
  let chain = Netfilter.create ~eng:(Node.engine node) () in
  Tcp.set_output_chain stack (Some chain);
  let client =
    match (t.cfg.store_replica, t.cfg.store_retry) with
    | None, false -> Store.Client.create node ~server:t.cfg.store_addr
    | replica, _ ->
        (* Resilient mode: idempotent, retried, failing over to the
           replica once the primary's budget is exhausted. *)
        Store.Client.create ?replica ~retry:Rpc.retry_policy node
          ~server:t.cfg.store_addr
  in
  t.stack <- Some stack;
  t.client <- Some client;
  let eng = Node.engine node in
  t.per_vrf <-
    List.map
      (fun spec ->
        {
          spec;
          repl =
            Replicator.create ~replicate:t.cfg.replicate
              ~ack_hold:t.cfg.ack_hold ~engine:eng ~client
              ~conn_id:(Keys.conn_id ~service:t.cfg.service_id ~vrf:spec.vrf)
              ~service:t.cfg.service_id ();
          peer = None;
          bfd = None;
          trimmer = None;
          established = false;
        })
      t.cfg.vrfs;
  if t.cfg.degrade_frac > 0. then
    List.iter
      (fun pv ->
        Replicator.set_on_store_healed pv.repl (fun () ->
            rearm_from_degraded t pv))
      t.per_vrf;
  let router_id =
    match t.cfg.vrfs with
    | spec :: _ -> spec.vip
    | [] -> invalid_arg "Tensor app: no VRFs configured"
  in
  let spk =
    Bgp.Speaker.create ~profile:Baseline.tensor ~hooks:(hooks_for t) ~stack
      ~local_asn:t.cfg.local_asn ~router_id ()
  in
  t.spk <- Some spk;
  Orch.Container.set_resources t.cont
    ~mem_mb:(220.0 +. (30.0 *. float_of_int (List.length t.cfg.vrfs)))
    ~cpu_pct:(0.04 +. (0.015 *. float_of_int (List.length t.cfg.vrfs)));
  match t.boot_mode with
  | Fresh -> bootstrap_fresh t spk stack
  | Recover -> bootstrap_recover t spk stack client

let install cont ?(mode = Fresh) cfg =
  let t =
    {
      cfg;
      cont;
      boot_mode = mode;
      spk = None;
      stack = None;
      client = None;
      per_vrf = [];
      crashed = false;
      bfd_up_cb = (fun ~vrf:_ _ -> ());
      recovered_cb = (fun () -> ());
      tcp_synced_cb = (fun ~vrf:_ -> ());
    }
  in
  Orch.Container.on_running cont (fun _ -> bootstrap t ());
  (* Preheated standby containers are already Running: bootstrap now
     (from a fresh event, never reentrantly). *)
  if Orch.Container.state cont = Orch.Container.Running then
    ignore
      (Engine.schedule_after
         (Node.engine (Orch.Container.node cont))
         ~label:"app.bootstrap" 0 (bootstrap t));
  t

let freeze_for_migration t k =
  if t.crashed then k ()
  else begin
    t.crashed <- true;
    (match t.stack with Some stack -> Tcp.freeze_stack stack | None -> ());
    let remaining = ref (List.length t.per_vrf) in
    let one () =
      decr remaining;
      if !remaining = 0 then k ()
    in
    if t.per_vrf = [] then k ()
    else
      List.iter
        (fun pv ->
          Replicator.drain pv.repl (fun () ->
              Replicator.stop pv.repl;
              one ()))
        t.per_vrf
  end

let halt t =
  if not t.crashed then begin
    t.crashed <- true;
    (* The fence (TKE kill) takes the process with it: the stack freezes
       and replication stops, but nothing is reported — a dead process
       cannot speak. Without this, the fenced instance's keepalive timer
       keeps attempting store writes through its dead node; the blocked
       control lane then ages past the degrade deadline and a zombie
       declares degraded pass-through under the same conn id its live
       successor is using. *)
    (match t.stack with Some stack -> Tcp.freeze_stack stack | None -> ());
    List.iter (fun pv -> Replicator.stop pv.repl) t.per_vrf
  end

let crash_bgp t =
  if not t.crashed then begin
    t.crashed <- true;
    (* The process dies: the TCP stack freezes mid-flight (no FIN/RST
       escapes: the NFQUEUE has no reader any more) and replication
       stops. BFD is a separate process and keeps running. *)
    (match t.stack with Some stack -> Tcp.freeze_stack stack | None -> ());
    List.iter (fun pv -> Replicator.stop pv.repl) t.per_vrf;
    (* The in-container monitor notices within ~10 ms and reports. *)
    match t.cfg.controller_addr with
    | Some ctrl ->
        let node = Orch.Container.node t.cont in
        ignore
          (Engine.schedule_after (Node.engine node) ~label:"app.fail_report"
             (Time.ms 10) (fun () ->
               Rpc.call (Rpc.endpoint node) ~dst:ctrl ~service:"report"
                 (Orch.Controller.Report_app_failure t.cfg.service_id)
                 (fun _ -> ())))
    | None -> ()
  end

open Sim

let m_msgs_in = Telemetry.Registry.counter "bgp.msgs_in"
let m_msgs_out = Telemetry.Registry.counter "bgp.msgs_out"
let m_upd_in = Telemetry.Registry.counter "bgp.updates_in"
let m_upd_out = Telemetry.Registry.counter "bgp.updates_out"
let m_established = Telemetry.Registry.counter "bgp.sessions_established"
let m_down = Telemetry.Registry.counter "bgp.sessions_down"
let m_resumed = Telemetry.Registry.counter "bgp.sessions_resumed"

type state = Idle | Connecting | Open_sent | Open_confirm | Established | Down

let pp_state fmt s =
  Format.pp_print_string fmt
    (match s with
    | Idle -> "Idle"
    | Connecting -> "Connecting"
    | Open_sent -> "OpenSent"
    | Open_confirm -> "OpenConfirm"
    | Established -> "Established"
    | Down -> "Down")

type down_reason =
  | Transport_failed of Tcp.close_reason
  | Notification_received of Msg.notification
  | Notification_sent of Msg.notification
  | Hold_timer_expired
  | Stopped

let pp_down_reason fmt = function
  | Transport_failed r -> Format.fprintf fmt "transport %a" Tcp.pp_close_reason r
  | Notification_received n ->
      Format.fprintf fmt "notification received %d/%d" n.Msg.code n.Msg.subcode
  | Notification_sent n ->
      Format.fprintf fmt "notification sent %d/%d" n.Msg.code n.Msg.subcode
  | Hold_timer_expired -> Format.pp_print_string fmt "hold timer expired"
  | Stopped -> Format.pp_print_string fmt "stopped"

type event =
  | Session_established of Msg.open_msg
  | Message_received of Msg.t * int
  | Session_went_down of down_reason

type config = {
  local_asn : int;
  router_id : Netsim.Addr.t;
  local_addr : Netsim.Addr.t option;
  peer_addr : Netsim.Addr.t;
  peer_asn : int option;
  hold_time : int;
  port : int;
  passive : bool;
  graceful_restart : int option;
  as4 : bool;
}

let default_hold_time = 90

let default_config ~local_asn ~router_id ~peer_addr () =
  {
    local_asn;
    router_id;
    local_addr = None;
    peer_addr;
    peer_asn = None;
    hold_time = default_hold_time;
    port = 179;
    passive = false;
    graceful_restart = Some 120;
    as4 = true;
  }

type negotiated = {
  peer_open : Msg.open_msg;
  hold_time : int;
  peer_supports_gr : bool;
  peer_gr_restart_time : int;
  as4_in_use : bool;
}

type t = {
  cfg : config;
  eng : Engine.t;
  stack : Tcp.stack;
  mutable st : state;
  mutable tcp : Tcp.conn option;
  mutable framer : Msg.Framer.t;
  mutable neg : negotiated option;
  hold : Engine.deadline Lazy.t;
  mutable keepalive_timer : Engine.timer option;
  mutable pre_send : Msg.t -> string -> (unit -> unit) -> unit;
  mutable on_message : Msg.t -> raw:string -> unit;
  mutable cb : t -> event -> unit;
  mutable parsed : int;
  mutable n_in : int;
  mutable n_out : int;
  mutable upd_in : int;
  mutable upd_out : int;
  mutable ka_in : int;
  mutable last_write_at : Time.t;
}

let state t = t.st
let config t = t.cfg
let negotiated t = t.neg
let conn t = t.tcp
let parsed_bytes t = t.parsed
let unparsed_tail t = Msg.Framer.buffered_bytes t.framer
let messages_in t = t.n_in
let messages_out t = t.n_out
let updates_in t = t.upd_in
let updates_out t = t.upd_out
let keepalives_in t = t.ka_in
let last_write t = t.last_write_at
let set_pre_send t f = t.pre_send <- f
let set_on_message t f = t.on_message <- f

let my_capabilities cfg =
  Msg.Cap_route_refresh :: Msg.Cap_four_octet_asn cfg.local_asn
  ::
  (match cfg.graceful_restart with
  | Some rt ->
      [ Msg.Cap_graceful_restart { restart_time = rt; preserved_fwd = true } ]
  | None -> [])

let my_open cfg =
  Msg.Open
    {
      version = 4;
      asn = cfg.local_asn;
      hold_time = cfg.hold_time;
      router_id = cfg.router_id;
      capabilities = my_capabilities cfg;
    }

let as4_wire t =
  (* Until negotiation completes, encode with AS4 iff configured; OPEN
     itself is AS4-agnostic. *)
  match t.neg with Some n -> n.as4_in_use | None -> t.cfg.as4

let raw_write t msg =
  match t.tcp with
  | None -> ()
  | Some c ->
      if Tcp.state c = Tcp.Established then begin
        t.n_out <- t.n_out + 1;
        Telemetry.Registry.incr m_msgs_out;
        t.upd_out <- t.upd_out + Msg.update_count msg;
        Telemetry.Registry.add m_upd_out (Msg.update_count msg);
        (match msg with
        | Msg.Update _ -> t.last_write_at <- Engine.now t.eng
        | Msg.Open _ | Msg.Notification _ | Msg.Keepalive | Msg.Route_refresh _
          -> ());
        Tcp.write c (Msg.encode ~as4:(as4_wire t) msg)
      end

let send_internal t msg =
  let raw = Msg.encode ~as4:(as4_wire t) msg in
  t.pre_send msg raw (fun () -> raw_write t msg)

let cancel_hold t = Engine.clear_deadline (Lazy.force t.hold)

let stop_keepalive t =
  match t.keepalive_timer with
  | Some timer ->
      Engine.stop_timer timer;
      t.keepalive_timer <- None
  | None -> ()

let session_ident t =
  ( Netsim.Node.name (Tcp.stack_node t.stack),
    Netsim.Addr.to_string t.cfg.peer_addr )

let teardown t reason =
  if t.st <> Down then begin
    let was_established = t.st = Established in
    t.st <- Down;
    if was_established then begin
      Telemetry.Registry.incr m_down;
      if Telemetry.Gate.on () then begin
        let node, peer = session_ident t in
        Telemetry.Bus.emit t.eng
          (Telemetry.Event.Session_down
             {
               node;
               peer;
               reason = Format.asprintf "%a" pp_down_reason reason;
             })
      end
    end;
    cancel_hold t;
    stop_keepalive t;
    (match t.tcp with
    | Some c when Tcp.state c <> Tcp.Closed ->
        Tcp.on_close c (fun _ -> ());
        Tcp.abort c
    | _ -> ());
    t.tcp <- None;
    t.cb t (Session_went_down reason)
  end

let send_notification_and_die t code subcode =
  let n = { Msg.code; subcode; data = "" } in
  (* Best-effort: write directly, bypassing the replication hook (a dying
     session must not block on the store). *)
  raw_write t (Msg.Notification n);
  teardown t (Notification_sent n)

let arm_hold t seconds =
  if seconds > 0 then
    Engine.set_deadline (Lazy.force t.hold)
      (Time.add (Engine.now t.eng) (Time.sec seconds))
  else cancel_hold t

let reset_hold t =
  match t.neg with
  | Some n when n.hold_time > 0 -> arm_hold t n.hold_time
  | Some _ -> ()
  | None -> arm_hold t t.cfg.hold_time

let start_keepalives t =
  match t.neg with
  | Some n when n.hold_time > 0 ->
      let interval = Time.sec (max 1 (n.hold_time / 3)) in
      t.keepalive_timer <-
        Some
          (Engine.every t.eng ~label:"bgp.keepalive" interval (fun () ->
               if t.st = Established then send_internal t Msg.Keepalive))
  | _ -> ()

let negotiate (cfg : config) (o : Msg.open_msg) =
  let peer_gr =
    List.find_map
      (function
        | Msg.Cap_graceful_restart { restart_time; _ } -> Some restart_time
        | _ -> None)
      o.capabilities
  in
  let peer_as4 =
    List.exists
      (function Msg.Cap_four_octet_asn _ -> true | _ -> false)
      o.capabilities
  in
  {
    peer_open = o;
    hold_time = min cfg.hold_time o.hold_time;
    peer_supports_gr = peer_gr <> None;
    peer_gr_restart_time = (match peer_gr with Some rt -> rt | None -> 0);
    as4_in_use = cfg.as4 && peer_as4;
  }

let validate_open cfg (o : Msg.open_msg) =
  if o.version <> 4 then Error (2, 1)
  else
    match cfg.peer_asn with
    | Some expected when expected <> o.asn -> Error (2, 2)
    | _ -> if o.hold_time = 1 || o.hold_time = 2 then Error (2, 6) else Ok ()

let handle_open t o =
  match validate_open t.cfg o with
  | Error (code, subcode) -> send_notification_and_die t code subcode
  | Ok () ->
      let neg = negotiate t.cfg o in
      t.neg <- Some neg;
      (* Rebuild the framer with the negotiated AS4 mode for subsequent
         messages. (OPEN and KEEPALIVE are AS4-agnostic.) *)
      t.framer <- Msg.Framer.create ~as4:neg.as4_in_use ();
      send_internal t Msg.Keepalive;
      t.st <- Open_confirm;
      reset_hold t

let establish t =
  t.st <- Established;
  Telemetry.Registry.incr m_established;
  if Telemetry.Gate.on () then begin
    let node, peer = session_ident t in
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Session_established { node; peer })
  end;
  reset_hold t;
  start_keepalives t;
  match t.neg with
  | Some n -> t.cb t (Session_established n.peer_open)
  | None -> ()

let handle_message t msg raw =
  let size = String.length raw in
  t.n_in <- t.n_in + 1;
  Telemetry.Registry.incr m_msgs_in;
  t.on_message msg ~raw;
  reset_hold t;
  match (t.st, msg) with
  | ( (Idle | Connecting | Open_sent | Open_confirm | Established | Down),
      Msg.Notification n ) ->
      teardown t (Notification_received n)
  | Open_sent, Msg.Open o -> handle_open t o
  | Open_sent, _ -> send_notification_and_die t 5 0 (* FSM error *)
  | Open_confirm, Msg.Keepalive ->
      t.ka_in <- t.ka_in + 1;
      establish t
  | Open_confirm, Msg.Open _ ->
      (* Duplicate OPEN (e.g. retransmitted): tolerate. *)
      ()
  | Open_confirm, _ -> send_notification_and_die t 5 0
  | Established, Msg.Keepalive -> t.ka_in <- t.ka_in + 1
  | Established, Msg.Update u ->
      t.upd_in <- t.upd_in + List.length u.nlri + List.length u.withdrawn;
      Telemetry.Registry.add m_upd_in
        (List.length u.nlri + List.length u.withdrawn);
      t.cb t (Message_received (msg, size))
  | Established, Msg.Route_refresh _ -> t.cb t (Message_received (msg, size))
  | Established, Msg.Open _ -> send_notification_and_die t 5 0
  | (Idle | Connecting | Down), _ -> ()

let on_stream_data t data =
  let results = Msg.Framer.push t.framer data in
  List.iter
    (fun r ->
      if t.st <> Down then
        match r with
        | Ok (msg, raw) ->
            t.parsed <- t.parsed + String.length raw;
            handle_message t msg raw
        | Error e ->
            let n =
              match Msg.error_notification e with
              | Msg.Notification n -> n
              | _ -> { Msg.code = 1; subcode = 0; data = "" }
            in
            raw_write t (Msg.Notification n);
            teardown t (Notification_sent n))
    results

(* Wire a TCP connection's callbacks into the session. *)
let bind_tcp t c =
  t.tcp <- Some c;
  Tcp.on_data c (fun data -> on_stream_data t data);
  Tcp.on_close c (fun reason ->
      if t.st <> Down then teardown t (Transport_failed reason));
  Tcp.on_remote_close c (fun () ->
      if t.st <> Down then teardown t (Transport_failed Tcp.Closed_normally))

let make_t stack cfg cb =
  let eng = Tcp.stack_engine stack in
  let rec t =
    {
      cfg;
      eng;
      stack;
      st = Idle;
      tcp = None;
      framer = Msg.Framer.create ~as4:true ();
      neg = None;
      hold =
        lazy
          (Engine.deadline eng ~label:"bgp.hold" (fun () ->
               send_notification_and_die t 4 0));
      keepalive_timer = None;
      pre_send = (fun _ _ k -> k ());
      on_message = (fun _ ~raw:_ -> ());
      cb;
      parsed = 0;
      n_in = 0;
      n_out = 0;
      upd_in = 0;
      upd_out = 0;
      ka_in = 0;
      last_write_at = Time.zero;
    }
  in
  t

let begin_handshake t =
  send_internal t (my_open t.cfg);
  t.st <- Open_sent;
  (* A large initial hold protects the handshake (RFC suggests 4 min). *)
  arm_hold t 240

let start_active stack cfg ~cb =
  let t = make_t stack cfg cb in
  t.st <- Connecting;
  let c =
    Tcp.connect stack ?src:cfg.local_addr ~dst:cfg.peer_addr
      ~dst_port:cfg.port ()
  in
  bind_tcp t c;
  Tcp.on_established c (fun () -> if t.st = Connecting then begin_handshake t);
  t

let accept_passive stack cfg ~conn ~cb =
  let t = make_t stack cfg cb in
  bind_tcp t conn;
  begin_handshake t;
  t

let resume stack cfg ~repair ~negotiated:neg ~framer_seed ~cb =
  let t = make_t stack cfg cb in
  t.neg <- Some neg;
  t.framer <- Msg.Framer.create ~as4:neg.as4_in_use ();
  let c = Tcp.import_repair stack repair in
  bind_tcp t c;
  t.st <- Established;
  Telemetry.Registry.incr m_resumed;
  if Telemetry.Gate.on () then begin
    let node, peer = session_ident t in
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Session_resumed { node; peer })
  end;
  t.parsed <-
    repair.Tcp.Repair.rcv_nxt - repair.Tcp.Repair.irs - 1
    - String.length framer_seed;
  if String.length framer_seed > 0 then
    ignore (Msg.Framer.push t.framer framer_seed);
  reset_hold t;
  start_keepalives t;
  t

let send t msg =
  if t.st <> Established then
    invalid_arg "Session.send: session not established";
  send_internal t msg

let stop t =
  if t.st = Established || t.st = Open_confirm || t.st = Open_sent then
    send_notification_and_die t 6 0 (* Cease *)
  else teardown t Stopped

open Sim
open Netsim

type state = Admin_down | Down | Init | Up

let m_pkts_in = Telemetry.Registry.counter "bfd.packets_in"
let m_pkts_out = Telemetry.Registry.counter "bfd.packets_out"
let m_detections = Telemetry.Registry.counter "bfd.detections"
let m_sessions = Telemetry.Registry.counter "bfd.sessions"

type control = {
  vrf : string;
  my_disc : int;
  your_disc : int;
  state : state;
  detect_mult : int;
  tx_interval : Time.span;
}

type Packet.payload += Bfd of control

let control_wire_size = 66 (* IP + UDP + 24-byte BFD control *)

module Remotes = Hashtbl.Make (Addr)

type session = {
  ep : endpoint;
  svrf : string;
  slocal : Addr.t;
  sremote : Addr.t;
  disc : int;
  mutable peer_disc : int;
  mutable tx_interval : Time.span;
  detect_mult : int;
  mutable st : state;
  mutable tx_timer : Engine.timer option;
  detect : Engine.deadline Lazy.t;
  mutable detect_interval : Time.span; (* remote interval of the last arm *)
  mutable change_cb : old:state -> state -> unit;
  (* Flag plus instant rather than [Time.t option]: set per packet. *)
  mutable has_rx : bool;
  mutable last_rx_at : Time.t;
}

and endpoint = {
  node : Node.t;
  eng : Engine.t;
  sessions : session list Remotes.t; (* by remote; one per vrf, newest first *)
  mutable next_disc : int;
}

(* One endpoint per node, domain-local like the RPC registry: a BFD
   endpoint belongs to one simulation and a simulation never spans
   domains, so each campaign worker keeps a private table. *)
let registry_key : (string, endpoint) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let registry () = Domain.DLS.get registry_key

(* Hand-rolled and closure-free: runs once per received packet. *)
let rec find_vrf vrf = function
  | [] -> None
  | s :: rest -> if String.equal s.svrf vrf then Some s else find_vrf vrf rest

let find_session ep remote vrf =
  match Remotes.find_opt ep.sessions remote with
  | None -> None
  | Some l -> find_vrf vrf l

(* At most one session per (remote, vrf): registering replaces, and
   unregistering removes whichever session holds the slot. *)
let unregister ep remote vrf =
  match Remotes.find_opt ep.sessions remote with
  | None -> ()
  | Some l -> (
      match List.filter (fun s -> not (String.equal s.svrf vrf)) l with
      | [] -> Remotes.remove ep.sessions remote
      | rest -> Remotes.replace ep.sessions remote rest)

let register ep s =
  unregister ep s.sremote s.svrf;
  let others = Option.value ~default:[] (Remotes.find_opt ep.sessions s.sremote) in
  Remotes.replace ep.sessions s.sremote (s :: others)

let session_state s = s.st
let on_state_change s f = s.change_cb <- f
let my_disc s = s.disc
let your_disc s = s.peer_disc
let last_rx s = if s.has_rx then Some s.last_rx_at else None

let transition s new_state =
  if s.st <> new_state then begin
    let old = s.st in
    s.st <- new_state;
    s.change_cb ~old new_state
  end

let send_control ep s =
  if Node.is_up ep.node then begin
    Telemetry.Registry.incr m_pkts_out;
    let ctl =
      {
        vrf = s.svrf;
        my_disc = s.disc;
        your_disc = s.peer_disc;
        state = s.st;
        detect_mult = s.detect_mult;
        tx_interval = s.tx_interval;
      }
    in
    Node.send ep.node
      (Packet.make ~src:s.slocal ~dst:s.sremote ~size:control_wire_size
         (Bfd ctl))
  end

let cancel_detect s = Engine.clear_deadline (Lazy.force s.detect)

let detect_expired ep s =
  if s.st = Up || s.st = Init then begin
    s.peer_disc <- 0;
    Telemetry.Registry.incr m_detections;
    if Telemetry.Gate.on () then begin
      let now = Engine.now ep.eng in
      let silent_s =
        if s.has_rx then Time.to_sec_f (Time.diff now s.last_rx_at) else 0.0
      in
      Telemetry.Bus.emit ep.eng
        (Telemetry.Event.Bfd_down
           {
             node = Node.name ep.node;
             peer = Addr.to_string s.sremote;
             vrf = s.svrf;
             silent_s;
             interval_s = Time.to_sec_f s.detect_interval;
             mult = s.detect_mult;
           })
    end;
    transition s Down
  end

let arm_detect ep s ~remote_interval =
  let interval = max remote_interval (Time.ms 1) in
  let window = s.detect_mult * interval in
  (* Seeded fault: detect twice as late as the advertised
     interval × multiplier bound promises. *)
  let window = if !Monitor.Faults.bfd_slow_detect then 2 * window else window in
  s.detect_interval <- interval;
  Engine.set_deadline (Lazy.force s.detect) (Time.add (Engine.now ep.eng) window)

let to_up ep s =
  if s.st <> Up && Telemetry.Gate.on () then
    Telemetry.Bus.emit ep.eng
      (Telemetry.Event.Bfd_up
         { node = Node.name ep.node; peer = Addr.to_string s.sremote; vrf = s.svrf });
  transition s Up

let handle_control ep s (ctl : control) =
  if s.st <> Admin_down then begin
    Telemetry.Registry.incr m_pkts_in;
    s.has_rx <- true;
    s.last_rx_at <- Engine.now ep.eng;
    if ctl.my_disc <> 0 then s.peer_disc <- ctl.my_disc;
    arm_detect ep s ~remote_interval:ctl.tx_interval;
    match (s.st, ctl.state) with
    (* RFC 5880 §6.8.6: a session held in AdminDown discards whatever the
       peer reports; only a local command re-enables it. The former
       [_, Admin_down] wildcard matched first and knocked an
       administratively-down session back to Down on a peer AdminDown. *)
    | Admin_down, (Admin_down | Down | Init | Up) -> ()
    | Down, Down -> transition s Init
    | Down, Init -> to_up ep s
    | Down, Up -> (* illegal from Down; wait for the peer's Init *) ()
    | Init, (Init | Up) -> to_up ep s
    | Init, Down -> ()
    | Up, Down ->
        (* Peer restarted its session. *)
        transition s Down
    | Up, (Init | Up) -> ()
    | (Down | Init | Up), Admin_down -> transition s Down
  end

let handle_packet ep (pkt : Packet.t) =
  match pkt.payload with
  | Bfd ctl -> (
      match find_session ep pkt.src ctl.vrf with
      | Some s -> (
          handle_control ep s ctl;
          true)
      | None -> true (* unknown session: absorbed, as a UDP port would *))
  | _ -> false

let endpoint node =
  let key = Node.name node in
  match Hashtbl.find_opt (registry ()) key with
  | Some ep when ep.node == node -> ep
  | Some _ | None ->
      let ep =
        {
          node;
          eng = Node.engine node;
          sessions = Remotes.create 8;
          next_disc = 0;
        }
      in
      Node.add_handler node (handle_packet ep);
      Hashtbl.replace (registry ()) key ep;
      ep

let stop_session s =
  (match s.tx_timer with
  | Some t ->
      Engine.stop_timer t;
      s.tx_timer <- None
  | None -> ());
  cancel_detect s;
  transition s Admin_down;
  unregister s.ep s.sremote s.svrf

(* The paper's BFD timers: 100 ms x 3. *)
let default_tx_interval = Time.ms 100
let default_detect_mult = 3

let create_session ep ?(detect_mult = default_detect_mult) ~local ?resume
    ~vrf ~remote () =
  let tx_interval = default_tx_interval in
  (* Discriminators only need to be unique per local system; allocating
     them per endpoint (not from process-global state) keeps replicated
     records — and the store costs derived from their encoded size —
     byte-identical across repeated runs in one process. *)
  ep.next_disc <- ep.next_disc + 1;
  let disc, peer_disc, st =
    match resume with
    | Some (my_disc, your_disc) -> (my_disc, your_disc, Up)
    | None -> (ep.next_disc, 0, Down)
  in
  let rec s =
    {
      ep;
      svrf = vrf;
      slocal = local;
      sremote = remote;
      disc;
      peer_disc;
      tx_interval;
      detect_mult;
      st;
      tx_timer = None;
      detect =
        lazy
          (Engine.deadline ep.eng ~label:"bfd.detect" (fun () ->
               detect_expired ep s));
      detect_interval = 0;
      change_cb = (fun ~old:_ _ -> ());
      has_rx = false;
      last_rx_at = Time.zero;
    }
  in
  register ep s;
  Telemetry.Registry.incr m_sessions;
  send_control ep s;
  s.tx_timer <-
    Some
      (Engine.every ep.eng ~label:"bfd.tx" ~jitter:0.1 tx_interval (fun () ->
           if s.st <> Admin_down then send_control ep s));
  (* A resumed (Up) session must still detect a dead peer. *)
  if resume <> None then arm_detect ep s ~remote_interval:tx_interval;
  s

(* Live timer perturbation (chaos fault injection): change the transmit
   interval of a running session. The new interval rides in the next
   control packet's [tx_interval] field, so the remote end re-arms its
   detection window accordingly — exactly how a real BFD speaker
   renegotiates timers mid-session. *)
let set_tx_interval s interval =
  if interval <= 0 then invalid_arg "Bfd.set_tx_interval: non-positive";
  s.tx_interval <- interval;
  match s.tx_timer with
  | None -> ()
  | Some t ->
      Engine.stop_timer t;
      s.tx_timer <-
        Some
          (Engine.every s.ep.eng ~label:"bfd.tx" ~jitter:0.1 interval (fun () ->
               if s.st <> Admin_down then send_control s.ep s))

let tx_interval s = s.tx_interval

module Relay = struct
  type t = { mutable timer : Engine.timer option }

  (* The relay speaks at the sessions' default rate. *)
  let start node ~src ~dst ~vrf ~my_disc ~your_disc () =
    let t = { timer = None } in
    let ctl =
      {
        vrf;
        my_disc;
        your_disc;
        state = Up;
        detect_mult = default_detect_mult;
        tx_interval = default_tx_interval;
      }
    in
    let send () =
      if Node.is_up node then
        Node.send node (Packet.make ~src ~dst ~size:control_wire_size (Bfd ctl))
    in
    send ();
    t.timer <-
      Some
        (Engine.every (Node.engine node) ~label:"bfd.echo" ~jitter:0.05
           default_tx_interval send);
    t

  let stop t =
    match t.timer with
    | Some timer ->
        Engine.stop_timer timer;
        t.timer <- None
    | None -> ()
end

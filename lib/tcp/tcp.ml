open Sim
open Netsim

module Segment = Segment
module Congestion = Congestion
module Stream_buf = Stream_buf
module Quad = Quad
module Repair = Repair

let m_seg_out = Telemetry.Registry.counter "tcp.segments_out"
let m_seg_in = Telemetry.Registry.counter "tcp.segments_in"
let m_retx = Telemetry.Registry.counter "tcp.retransmits"
let m_rto = Telemetry.Registry.counter "tcp.rto_fires"
let m_repair_export = Telemetry.Registry.counter "tcp.repair_exports"
let m_repair_import = Telemetry.Registry.counter "tcp.repair_imports"
let m_rtt = Telemetry.Registry.histogram "tcp.rtt_s"

(* Retransmission timer bounds (RFC 6298 with Linux's 200 ms floor) and
   the retries before a connection times out. *)
let min_rto = Time.ms 200
let max_rto = Time.sec 60
let max_retries = 8

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closed

type close_reason = Closed_normally | Reset | Timed_out

let pp_close_reason fmt r =
  Format.pp_print_string fmt
    (match r with
    | Closed_normally -> "closed"
    | Reset -> "reset"
    | Timed_out -> "timed out")

type stack = {
  node : Node.t;
  eng : Engine.t;
  conns : (Quad.t, conn) Hashtbl.t;
  listeners : (int, conn -> unit) Hashtbl.t;
  mutable chain : Netfilter.t option;
  proc_cost : Time.span;
  proc_cost_per_kb : Time.span;
  hook_cost : Time.span;
  mutable busy_until : Time.t;
  mutable next_port : int;
  mutable frozen : bool;
  rng : Rng.t;
}

and conn = {
  stack : stack;
  cquad : Quad.t;
  cmss : int;
  rcv_wnd : int;
  mutable st : state;
  (* Send side. *)
  mutable iss_v : int;
  mutable snd_una_v : int;
  mutable snd_nxt_v : int;
  sndbuf : Stream_buf.t;
  cc : Congestion.t;
  mutable peer_wnd : int;
  mutable fin_pending : bool;
  mutable fin_seq : int option;
  (* Receive side. *)
  mutable irs_v : int;
  mutable rcv_nxt_v : int;
  mutable ooo : (int * string) list; (* sorted by seq *)
  mutable delivered : int;
  (* RTT estimation (RFC 6298, simplified). *)
  mutable srtt_v : float;
  mutable rttvar : float;
  mutable rto : Time.span; (* base value, from RTT estimation *)
  mutable backoff : int; (* exponential-backoff exponent, reset on new ACK *)
  mutable rto_recover : int option;
      (* go-back-N recovery after an RTO: retransmit ACK-clocked up to
         this point (the snd_nxt at timeout) instead of one MSS per
         timer firing *)
  mutable rtt_sampling : bool;
  mutable rtt_seq : int;
  mutable rtt_sent_at : Time.t;
  mutable rto_handle : Engine.handle option;
  mutable retries : int;
  (* Callbacks. *)
  mutable established_cb : unit -> unit;
  mutable data_cb : string -> unit;
  mutable close_cb : close_reason -> unit;
  mutable remote_fin_cb : unit -> unit;
}

let stack_node s = s.node
let stack_engine s = s.eng
let set_output_chain s c = s.chain <- c
let output_chain s = s.chain

(* Serialize all segment handling through the stack's modelled CPU. *)
let occupy ?(bytes = 0) stack =
  let now = Engine.now stack.eng in
  let start = if stack.busy_until > now then stack.busy_until else now in
  let cost = stack.proc_cost + (bytes * stack.proc_cost_per_kb / 1024) in
  let finish = Time.add start cost in
  stack.busy_until <- finish;
  finish

let emit_packet stack pkt =
  match stack.chain with
  | None -> Node.send stack.node pkt
  | Some chain ->
      Netfilter.traverse chain pkt ~emit:(fun p -> Node.send stack.node p)

let raw_send stack ~src ~dst (seg : Segment.t) =
  if not stack.frozen then begin
    let finish = occupy ~bytes:(String.length seg.Segment.payload) stack in
    (* Interception overhead: every egress segment traverses the OUTPUT
       chain when one is installed. *)
    let finish =
      if stack.chain = None then finish
      else begin
        stack.busy_until <- Time.add stack.busy_until stack.hook_cost;
        Time.add finish stack.hook_cost
      end
    in
    ignore
      (Engine.schedule_at stack.eng ~label:"tcp.tx" finish (fun () ->
           if not stack.frozen then begin
             let pkt =
               Packet.make ~src ~dst ~size:(Segment.wire_size seg)
                 (Segment.Tcp seg)
             in
             emit_packet stack pkt
           end))
  end

let send_seg c ?(flags = Segment.flag_ack) ?seq ?(payload = "") () =
  let seq = match seq with Some s -> s | None -> c.snd_nxt_v in
  let seg =
    {
      Segment.src_port = c.cquad.local_port;
      dst_port = c.cquad.remote_port;
      seq;
      ack = (if flags.Segment.ack then c.rcv_nxt_v else 0);
      window = c.rcv_wnd;
      payload;
      flags;
    }
  in
  Telemetry.Registry.incr m_seg_out;
  raw_send c.stack ~src:c.cquad.local_addr ~dst:c.cquad.remote_addr seg

let send_ack c = send_seg c ()

(* --- RTO management --------------------------------------------------- *)

let cancel_rto c =
  match c.rto_handle with
  | Some h ->
      Engine.cancel h;
      c.rto_handle <- None
  | None -> ()

let update_rtt c sample_s =
  Telemetry.Registry.observe m_rtt sample_s;
  (* lint: allow d3 — 0.0 is the exact "no RTT sample yet" sentinel assigned at creation, never computed *)
  if c.srtt_v = 0.0 then begin
    c.srtt_v <- sample_s;
    c.rttvar <- sample_s /. 2.0
  end
  else begin
    c.rttvar <- (0.75 *. c.rttvar) +. (0.25 *. Float.abs (c.srtt_v -. sample_s));
    c.srtt_v <- (0.875 *. c.srtt_v) +. (0.125 *. sample_s)
  end;
  let rto = Time.of_sec_f (c.srtt_v +. (4.0 *. c.rttvar)) in
  c.rto <- max min_rto (min max_rto rto)

let teardown c reason =
  if c.st <> Closed then begin
    c.st <- Closed;
    cancel_rto c;
    Hashtbl.remove c.stack.conns c.cquad;
    c.close_cb reason
  end

(* Retransmit the lowest outstanding segment (data or FIN). *)
let retransmit_head c =
  if c.snd_una_v < c.snd_nxt_v then begin
    c.rtt_sampling <- false (* Karn's rule *);
    match c.fin_seq with
    | Some fs when c.snd_una_v = fs ->
        Telemetry.Registry.incr m_retx;
        if Telemetry.Gate.on () then
          Telemetry.Bus.emit c.stack.eng
            (Telemetry.Event.Seg_retransmit
               { conn = Quad.to_string c.cquad; seq = fs; len = 0 });
        send_seg c ~flags:Segment.flag_fin_ack ~seq:fs ()
    | _ ->
        let data_end = Stream_buf.end_seq c.sndbuf in
        let len = min c.cmss (data_end - c.snd_una_v) in
        if len > 0 then begin
            Telemetry.Registry.incr m_retx;
          if Telemetry.Gate.on () then
            Telemetry.Bus.emit c.stack.eng
              (Telemetry.Event.Seg_retransmit
                 { conn = Quad.to_string c.cquad; seq = c.snd_una_v; len });
          let payload = Stream_buf.read c.sndbuf ~seq:c.snd_una_v ~len in
          send_seg c ~seq:c.snd_una_v ~payload ()
        end
  end

let effective_rto c =
  min max_rto (c.rto * (1 lsl min 8 c.backoff))

let rec arm_rto c =
  cancel_rto c;
  c.rto_handle <-
    Some
      (Engine.schedule_after c.stack.eng ~label:"tcp.rto" (effective_rto c)
         (fun () ->
           c.rto_handle <- None;
           handle_rto c))

and handle_rto c =
  if c.st <> Closed then begin
    Telemetry.Registry.incr m_rto;
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit c.stack.eng
        (Telemetry.Event.Rto_fired
           {
             conn = Quad.to_string c.cquad;
             backoff = c.backoff;
             rto_s = Time.to_sec_f (effective_rto c);
           })
  end;
  match c.st with
  | Closed -> ()
  | Syn_sent ->
      c.retries <- c.retries + 1;
      if c.retries > max_retries then teardown c Timed_out
      else begin
        c.backoff <- c.backoff + 1;
        send_seg c ~flags:Segment.flag_syn ~seq:c.iss_v ();
        arm_rto c
      end
  | Syn_received ->
      c.retries <- c.retries + 1;
      if c.retries > max_retries then teardown c Timed_out
      else begin
        c.backoff <- c.backoff + 1;
        send_seg c ~flags:Segment.flag_synack ~seq:c.iss_v ();
        arm_rto c
      end
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Last_ack ->
      if c.snd_una_v < c.snd_nxt_v then begin
        c.retries <- c.retries + 1;
        if c.retries > max_retries then teardown c Timed_out
        else begin
          Congestion.on_rto c.cc;
          c.backoff <- c.backoff + 1;
          c.rto_recover <- Some c.snd_nxt_v;
          retransmit_head c;
          arm_rto c
        end
      end

(* ACK-clocked go-back-N: after an RTO, each new ACK lets us retransmit
   the next congestion-window's worth of the lost tail rather than one
   MSS per timer firing. *)
and retransmit_burst c ~upto =
  let wnd = min (Congestion.window c.cc) c.peer_wnd in
  let data_end = Stream_buf.end_seq c.sndbuf in
  let stop = min upto (min data_end (c.snd_una_v + wnd)) in
  let seq = ref c.snd_una_v in
  while !seq < stop do
    let len = min c.cmss (stop - !seq) in
    let payload = Stream_buf.read c.sndbuf ~seq:!seq ~len in
    Telemetry.Registry.incr m_retx;
    send_seg c ~seq:!seq ~payload ();
    seq := !seq + len
  done

(* --- Transmission ------------------------------------------------------ *)

let can_send_data c =
  match c.st with
  | Established | Close_wait -> true
  | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2 | Last_ack | Closed ->
      false

let rec try_send c =
  if can_send_data c then begin
    let wnd = min (Congestion.window c.cc) c.peer_wnd in
    let data_end = Stream_buf.end_seq c.sndbuf in
    let continue = ref true in
    while !continue do
      let flight = c.snd_nxt_v - c.snd_una_v in
      let room = wnd - flight in
      if c.snd_nxt_v < data_end && room > 0 then begin
        let len = min (min c.cmss (data_end - c.snd_nxt_v)) room in
        let payload = Stream_buf.read c.sndbuf ~seq:c.snd_nxt_v ~len in
        send_seg c ~seq:c.snd_nxt_v ~payload ();
        if not c.rtt_sampling then begin
          c.rtt_sampling <- true;
          c.rtt_seq <- c.snd_nxt_v + len;
          c.rtt_sent_at <- Engine.now c.stack.eng
        end;
        c.snd_nxt_v <- c.snd_nxt_v + len;
        if c.rto_handle = None then arm_rto c
      end
      else continue := false
    done;
    maybe_send_fin c
  end

and maybe_send_fin c =
  if c.fin_pending && c.snd_nxt_v = Stream_buf.end_seq c.sndbuf then begin
    c.fin_pending <- false;
    c.fin_seq <- Some c.snd_nxt_v;
    send_seg c ~flags:Segment.flag_fin_ack ~seq:c.snd_nxt_v ();
    c.snd_nxt_v <- c.snd_nxt_v + 1;
    (match c.st with
    | Established -> c.st <- Fin_wait_1
    | Close_wait -> c.st <- Last_ack
    | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2 | Last_ack | Closed ->
        ());
    if c.rto_handle = None then arm_rto c
  end

(* --- Receive path ------------------------------------------------------ *)

let deliver c data =
  c.delivered <- c.delivered + String.length data;
  c.data_cb data

let rec drain_ooo c =
  (* In-order traffic keeps [ooo] empty; skip the filter then so the
     per-segment rx path doesn't allocate its closure for nothing. *)
  (match c.ooo with
  | [] -> ()
  | _ ->
      c.ooo <-
        List.filter (fun (s, d) -> s + String.length d > c.rcv_nxt_v) c.ooo);
  match c.ooo with
  | (s, d) :: rest when s <= c.rcv_nxt_v ->
      let off = c.rcv_nxt_v - s in
      let fresh = String.sub d off (String.length d - off) in
      c.ooo <- rest;
      c.rcv_nxt_v <- c.rcv_nxt_v + String.length fresh;
      deliver c fresh;
      drain_ooo c
  | _ -> ()

let insert_ooo c (seq, data) =
  let len = String.length data in
  let covered =
    List.exists
      (fun (s, d) -> s <= seq && s + String.length d >= seq + len)
      c.ooo
  in
  if not covered then
    c.ooo <-
      List.sort (fun (a, _) (b, _) -> Int.compare a b) ((seq, data) :: c.ooo)

let process_data c (seg : Segment.t) =
  let len = String.length seg.payload in
  if len > 0 then
    if seg.seq + len <= c.rcv_nxt_v then send_ack c (* stale duplicate *)
    else if seg.seq >= c.rcv_nxt_v + c.rcv_wnd then () (* beyond our window *)
    else begin
      (* Bind the trimmed start and payload separately: a [let seq, data =
         ...] pair here allocated a tuple on every in-order segment. *)
      let off = if seg.seq < c.rcv_nxt_v then c.rcv_nxt_v - seg.seq else 0 in
      let seq = seg.seq + off in
      let data =
        if off = 0 then seg.payload else String.sub seg.payload off (len - off)
      in
      if seq = c.rcv_nxt_v then begin
        c.rcv_nxt_v <- c.rcv_nxt_v + String.length data;
        deliver c data;
        drain_ooo c
      end
      else insert_ooo c (seq, data);
      send_ack c
    end

let fin_acked c =
  match c.st with
  | Fin_wait_1 -> c.st <- Fin_wait_2
  | Last_ack -> teardown c Closed_normally
  | Syn_sent | Syn_received | Established | Fin_wait_2 | Close_wait | Closed ->
      ()

let process_ack c (seg : Segment.t) =
  if seg.flags.ack then begin
    c.peer_wnd <- seg.window;
    let reaction =
      Congestion.on_ack c.cc ~snd_una:c.snd_una_v ~snd_nxt:c.snd_nxt_v
        ~ack:seg.ack
    in
    if seg.ack > c.snd_una_v && seg.ack <= c.snd_nxt_v then begin
      c.snd_una_v <- seg.ack;
      Stream_buf.drop_until c.sndbuf
        (min seg.ack (Stream_buf.end_seq c.sndbuf));
      c.retries <- 0;
      c.backoff <- 0;
      (match c.rto_recover with
      | Some r when seg.ack >= r -> c.rto_recover <- None
      | Some r -> retransmit_burst c ~upto:r
      | None -> ());
      if c.rtt_sampling && seg.ack >= c.rtt_seq then begin
        c.rtt_sampling <- false;
        update_rtt c
          (Time.to_sec_f (Time.diff (Engine.now c.stack.eng) c.rtt_sent_at))
      end;
      (match c.fin_seq with
      | Some fs when seg.ack > fs -> fin_acked c
      | _ -> ());
      if c.snd_una_v >= c.snd_nxt_v then cancel_rto c else arm_rto c
    end;
    (match reaction with
    | Congestion.Fast_retransmit -> retransmit_head c
    | Congestion.Ack_advanced | Congestion.Ignore -> ());
    try_send c
  end

let process_fin c (seg : Segment.t) =
  if seg.flags.fin then begin
    let fin_pos = seg.seq + String.length seg.payload in
    if fin_pos = c.rcv_nxt_v then begin
      c.rcv_nxt_v <- c.rcv_nxt_v + 1;
      send_ack c;
      (match c.st with
      | Established ->
          c.st <- Close_wait;
          c.remote_fin_cb ()
      | Fin_wait_1 ->
          (* Simultaneous close: our FIN is unacked; peer's FIN arrived. *)
          c.st <- Last_ack
      | Fin_wait_2 -> teardown c Closed_normally
      | Syn_sent | Syn_received | Close_wait | Last_ack | Closed -> ())
    end
    else if fin_pos < c.rcv_nxt_v then send_ack c (* duplicate FIN *)
  end

let established_process c seg =
  process_ack c seg;
  if c.st <> Closed then begin
    process_data c seg;
    process_fin c seg
  end

let conn_rx c (seg : Segment.t) =
  Telemetry.Registry.incr m_seg_in;
  if seg.flags.rst then teardown c Reset
  else
    match c.st with
    | Syn_sent ->
        if seg.flags.syn && seg.flags.ack && seg.ack = c.iss_v + 1 then begin
          c.irs_v <- seg.seq;
          c.rcv_nxt_v <- seg.seq + 1;
          c.snd_una_v <- seg.ack;
          c.peer_wnd <- seg.window;
          c.st <- Established;
          c.retries <- 0;
          cancel_rto c;
          update_rtt c
            (Time.to_sec_f (Time.diff (Engine.now c.stack.eng) c.rtt_sent_at));
          send_ack c;
          c.established_cb ();
          try_send c
        end
    | Syn_received ->
        if seg.flags.syn && not seg.flags.ack then
          (* Duplicate SYN: our SYN-ACK was lost. *)
          send_seg c ~flags:Segment.flag_synack ~seq:c.iss_v ()
        else if seg.flags.ack && seg.ack = c.iss_v + 1 then begin
          c.snd_una_v <- seg.ack;
          c.peer_wnd <- seg.window;
          c.st <- Established;
          c.retries <- 0;
          cancel_rto c;
          c.established_cb ();
          if c.st <> Closed then begin
            process_data c seg;
            process_fin c seg
          end;
          try_send c
        end
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Last_ack ->
        if seg.flags.syn then send_ack c (* stale SYN on live conn *)
        else established_process c seg
    | Closed -> ()

(* --- Stack: demux and open/close --------------------------------------- *)

let default_mss = 1460
let default_rcv_wnd = 400_000

let make_conn stack quad ~mss ~rcv_wnd ~iss ~state =
  {
    stack;
    cquad = quad;
    cmss = mss;
    rcv_wnd;
    st = state;
    iss_v = iss;
    snd_una_v = iss;
    snd_nxt_v = iss;
    sndbuf = Stream_buf.create (iss + 1);
    cc = Congestion.create ~mss;
    peer_wnd = 65535;
    fin_pending = false;
    fin_seq = None;
    irs_v = 0;
    rcv_nxt_v = 0;
    ooo = [];
    delivered = 0;
    srtt_v = 0.0;
    rttvar = 0.0;
    rto = min_rto;
    backoff = 0;
    rto_recover = None;
    rtt_sampling = false;
    rtt_seq = 0;
    rtt_sent_at = Time.zero;
    rto_handle = None;
    retries = 0;
    established_cb = (fun () -> ());
    data_cb = (fun _ -> ());
    close_cb = (fun _ -> ());
    remote_fin_cb = (fun () -> ());
  }

let send_rst stack ~src ~dst (seg : Segment.t) =
  let rst =
    {
      Segment.src_port = seg.dst_port;
      dst_port = seg.src_port;
      seq = (if seg.flags.ack then seg.ack else 0);
      ack = seg.seq + Segment.seg_len seg;
      window = 0;
      payload = "";
      flags = { Segment.flag_rst with ack = true };
    }
  in
  raw_send stack ~src ~dst rst

let passive_open stack pkt (seg : Segment.t) accept_cb =
  let quad =
    Quad.v pkt.Packet.dst seg.dst_port pkt.Packet.src seg.src_port
  in
  let iss = Rng.int_in stack.rng 1_000 1_000_000_000 in
  let c =
    make_conn stack quad ~mss:default_mss ~rcv_wnd:default_rcv_wnd ~iss
      ~state:Syn_received
  in
  c.irs_v <- seg.seq;
  c.rcv_nxt_v <- seg.seq + 1;
  c.peer_wnd <- seg.window;
  c.established_cb <- (fun () -> accept_cb c);
  Hashtbl.replace stack.conns quad c;
  send_seg c ~flags:Segment.flag_synack ~seq:iss ();
  c.snd_nxt_v <- iss + 1;
  c.rtt_sent_at <- Engine.now stack.eng;
  arm_rto c

let process_incoming stack pkt (seg : Segment.t) =
  let quad =
    Quad.v pkt.Packet.dst seg.dst_port pkt.Packet.src seg.src_port
  in
  match Hashtbl.find_opt stack.conns quad with
  | Some c -> conn_rx c seg
  | None -> (
      if seg.flags.syn && not seg.flags.ack then
        match Hashtbl.find_opt stack.listeners seg.dst_port with
        | Some accept_cb -> passive_open stack pkt seg accept_cb
        | None -> send_rst stack ~src:pkt.Packet.dst ~dst:pkt.Packet.src seg
      else if not seg.flags.rst then
        send_rst stack ~src:pkt.Packet.dst ~dst:pkt.Packet.src seg)

let create_stack ?(proc_cost = Time.us 2) ?(proc_cost_per_kb = 0)
    ?(hook_cost = Time.ns 500) node =
  let eng = Node.engine node in
  let stack =
    {
      node;
      eng;
      conns = Hashtbl.create 64;
      listeners = Hashtbl.create 8;
      chain = None;
      proc_cost;
      proc_cost_per_kb;
      hook_cost;
      busy_until = Time.zero;
      next_port = 49152;
      frozen = false;
      rng = Rng.split (Engine.rng eng);
    }
  in
  Node.add_handler node (fun pkt ->
      match pkt.Packet.payload with
      | Segment.Tcp seg ->
          let finish =
            occupy ~bytes:(String.length seg.Segment.payload) stack
          in
          ignore
            (Engine.schedule_at eng ~label:"tcp.rx" finish (fun () ->
                 if Node.is_up node && not stack.frozen then
                   process_incoming stack pkt seg));
          true
      | _ -> false);
  stack

let freeze_stack stack =
  stack.frozen <- true;
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit stack.eng
      (Telemetry.Event.Session_frozen
         { node = Node.name stack.node; conns = Hashtbl.length stack.conns })

let listen stack ~port accept_cb = Hashtbl.replace stack.listeners port accept_cb

let alloc_port stack =
  let p = stack.next_port in
  stack.next_port <- stack.next_port + 1;
  p

let connect stack ?src ?(mss = default_mss) ?(rcv_wnd = default_rcv_wnd) ~dst
    ~dst_port () =
  let src_port = alloc_port stack in
  let local_addr =
    match src with
    | Some a ->
        if not (Node.has_address stack.node a) then
          invalid_arg "Tcp.connect: src is not a local address";
        a
    | None -> (
        match Node.addresses stack.node with
        | a :: _ -> a
        | [] -> invalid_arg "Tcp.connect: node has no address")
  in
  let quad = Quad.v local_addr src_port dst dst_port in
  if Hashtbl.mem stack.conns quad then
    invalid_arg (Printf.sprintf "Tcp.connect: %s in use" (Quad.to_string quad));
  let iss = Rng.int_in stack.rng 1_000 1_000_000_000 in
  let c = make_conn stack quad ~mss ~rcv_wnd ~iss ~state:Syn_sent in
  Hashtbl.replace stack.conns quad c;
  send_seg c ~flags:Segment.flag_syn ~seq:iss ();
  c.snd_nxt_v <- iss + 1;
  c.rtt_sent_at <- Engine.now stack.eng;
  arm_rto c;
  c

let write c data =
  (match c.st with
  | Closed | Fin_wait_1 | Fin_wait_2 | Last_ack ->
      invalid_arg "Tcp.write: connection closing or closed"
  | Syn_sent | Syn_received | Established | Close_wait -> ());
  if c.fin_pending then invalid_arg "Tcp.write: close already requested";
  Stream_buf.append c.sndbuf data;
  try_send c

let close c =
  match c.st with
  | Closed -> ()
  | Syn_sent -> teardown c Closed_normally
  | Syn_received | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
  | Last_ack ->
      if not c.fin_pending && c.fin_seq = None then begin
        c.fin_pending <- true;
        try_send c;
        maybe_send_fin c
      end

let abort c =
  if c.st <> Closed then begin
    send_seg c ~flags:Segment.flag_rst ~seq:c.snd_nxt_v ();
    teardown c Reset
  end

let on_established c f = c.established_cb <- f
let on_data c f = c.data_cb <- f
let on_close c f = c.close_cb <- f
let on_remote_close c f = c.remote_fin_cb <- f

let state c = c.st
let quad c = c.cquad
let mss c = c.cmss
let iss c = c.iss_v
let irs c = c.irs_v
let snd_una c = c.snd_una_v
let snd_nxt c = c.snd_nxt_v
let rcv_nxt c = c.rcv_nxt_v
let delivered_bytes c = c.delivered
(* lint: allow d3 — 0.0 is the exact "no RTT sample yet" sentinel assigned at creation, never computed *)
let srtt c = if c.srtt_v = 0.0 then None else Some c.srtt_v

let export_repair c =
  Telemetry.Registry.incr m_repair_export;
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit c.stack.eng
      (Telemetry.Event.Repair_export
         {
           conn = Quad.to_string c.cquad;
           unacked = Stream_buf.end_seq c.sndbuf - c.snd_una_v;
           snd_una = c.snd_una_v;
           snd_nxt = c.snd_nxt_v;
           rcv_nxt = c.rcv_nxt_v;
         });
  {
    Repair.quad = c.cquad;
    mss = c.cmss;
    rcv_wnd = c.rcv_wnd;
    iss = c.iss_v;
    irs = c.irs_v;
    snd_una = c.snd_una_v;
    snd_nxt =
      (* Exclude an in-flight FIN from the snapshot: the importer re-sends
         data only. *)
      (match c.fin_seq with Some fs -> min fs c.snd_nxt_v | None -> c.snd_nxt_v);
    rcv_nxt = c.rcv_nxt_v;
    peer_wnd = c.peer_wnd;
    unacked =
      Stream_buf.chunks_from c.sndbuf ~seq:c.snd_una_v
      |> List.filter_map (fun (seq, data) ->
             (* Clip to snd_nxt: written-but-unsent bytes travel too, as
                they are already sequence-assigned in sndbuf. *)
             if seq >= c.snd_nxt_v then None else Some (seq, data));
  }

let import_repair stack (r : Repair.t) =
  if not (Repair.consistent r) then
    invalid_arg "Tcp.import_repair: inconsistent state";
  if Hashtbl.mem stack.conns r.quad then
    invalid_arg
      (Printf.sprintf "Tcp.import_repair: %s in use" (Quad.to_string r.quad));
  let c =
    make_conn stack r.quad ~mss:r.mss ~rcv_wnd:r.rcv_wnd ~iss:r.iss
      ~state:Established
  in
  c.irs_v <- r.irs;
  c.rcv_nxt_v <- r.rcv_nxt;
  c.snd_una_v <- r.snd_una;
  c.snd_nxt_v <- r.snd_una;
  c.peer_wnd <- r.peer_wnd;
  (* Rebuild the send stream from the snapshot; Stream_buf is based at
     snd_una, and the chunks tile exactly (checked by [consistent]). *)
  let sndbuf = Stream_buf.create r.snd_una in
  List.iter (fun (_, data) -> Stream_buf.append sndbuf data) r.unacked;
  let c = { c with sndbuf } in
  Hashtbl.replace stack.conns r.quad c;
  Telemetry.Registry.incr m_repair_import;
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit stack.eng
      (Telemetry.Event.Repair_import
         {
           conn = Quad.to_string r.quad;
           unacked =
             List.fold_left
               (fun acc (_, d) -> acc + String.length d)
               0 r.unacked;
           snd_una = r.snd_una;
           snd_nxt = r.snd_nxt;
           rcv_nxt =
             (* The seeded repair_gap fault skews the reported receive
                cursor one byte past what replication covered; the
                imported connection itself is untouched so the scenario
                still completes and only the continuity checker sees
                the gap. *)
             (r.rcv_nxt + if !Monitor.Faults.repair_gap then 1 else 0);
         });
  (* Announce ourselves: a pure ACK resynchronizes the peer (it will
     retransmit anything above our rcv_nxt), and our unacked data is
     retransmitted by the normal send machinery. *)
  send_ack c;
  try_send c;
  if c.snd_una_v < c.snd_nxt_v && c.rto_handle = None then arm_rto c;
  c

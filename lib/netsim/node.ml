open Sim

type iface = {
  link : Link.t;
  side : Link.side;
  local : Addr.t;
  remote : Addr.t;
}

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Addr.hash_int
end)

(* What a node does with a packet for a destination: take it, send it
   out of an interface, or count it unrouted. *)
type decision = Local | Via of iface | Unrouted

(* Forwarding state is hashed so that each packet hop costs O(1): the
   fabric router of a fleet holds a hundred or more addresses,
   interfaces and routes, and a list scan per lookup would dominate
   delivery. The ordered lists stay for the accessors. [decisions]
   caches one {!decision} per destination; every change to addresses,
   interfaces or routes empties it. Up/down and link state are not
   cached: they are checked per packet. *)
type t = {
  nname : string;
  eng : Engine.t;
  mutable addrs : Addr.t list;
  addr_set : unit Tbl.t;
  mutable handlers : (Packet.t -> bool) list;
  mutable ifs : iface list;
  by_remote : iface Tbl.t; (* newest interface per remote address *)
  routes : Addr.t Tbl.t; (* [route_key len base] to gateway, newest wins *)
  mutable route_lens : int list; (* distinct prefix lengths, longest first *)
  decisions : decision Tbl.t;
  mutable up : bool;
  forwarding : bool;
  mutable unrouted : int;
  mutable unclaimed : int;
  (* Packets to the node itself: each is delivered by an event of its
     own, so senders never observe reentrant receive callbacks. *)
  loopback : Packet.t Engine.fifo;
}

let name t = t.nname
let engine t = t.eng
let has_address t a = Tbl.mem t.addr_set (Addr.to_int a)

let add_address t a =
  if not (has_address t a) then begin
    t.addrs <- a :: t.addrs;
    Tbl.replace t.addr_set (Addr.to_int a) ();
    Tbl.clear t.decisions
  end

let remove_address t a =
  t.addrs <- List.filter (fun x -> not (Addr.equal x a)) t.addrs;
  Tbl.remove t.addr_set (Addr.to_int a);
  Tbl.clear t.decisions

let addresses t = t.addrs
let ifaces t = t.ifs

(* One int per (length, masked base): no tuple per lookup. *)
let route_key len base = (len lsl 32) lor Addr.to_int base

let rec insert_len len = function
  | [] -> [ len ]
  | l :: rest as lens ->
      if len > l then len :: lens
      else if len = l then lens
      else l :: insert_len len rest

let add_route t (prefix : Addr.prefix) gateway =
  Tbl.replace t.routes (route_key prefix.len prefix.base) gateway;
  t.route_lens <- insert_len prefix.len t.route_lens;
  Tbl.clear t.decisions

let add_handler t f = t.handlers <- t.handlers @ [ f ]

let rec offer t pkt = function
  | [] -> t.unclaimed <- t.unclaimed + 1
  | h :: rest -> if not (h pkt) then offer t pkt rest

let deliver_local t pkt = offer t pkt t.handlers

let iface_to t a = Tbl.find_opt t.by_remote (Addr.to_int a)

(* Longest prefix first. The first length that matches decides: a
   gateway with no interface drops the packet rather than falling back
   to a shorter prefix. *)
let rec route_gw t dst = function
  | [] -> None
  | len :: rest -> (
      match Tbl.find_opt t.routes (route_key len (Addr.mask dst len)) with
      | Some _ as gw -> gw
      | None -> route_gw t dst rest)

let iface_for t dst =
  match iface_to t dst with
  | Some _ as found -> found
  | None -> (
      match route_gw t dst t.route_lens with
      | None -> None
      | Some gw -> iface_to t gw)

(* The cache miss path. *)
let decide t dst =
  if has_address t dst then Local
  else match iface_for t dst with None -> Unrouted | Some i -> Via i

let decision t dst =
  let k = Addr.to_int dst in
  match Tbl.find t.decisions k with
  | d -> d
  | exception Not_found ->
      let d = decide t dst in
      Tbl.replace t.decisions k d;
      d

let rec emit t pkt = function
  | Local -> Engine.enqueue t.loopback (Engine.now t.eng) pkt
  | Via i -> Link.transmit i.link ~from:i.side pkt
  | Unrouted -> t.unrouted <- t.unrouted + 1

(* A forwarded packet keeps its destination, so the decision that
   routed it here also sends it on, as the same object with its TTL
   decremented in place. The TTL is checked first: an expired packet is
   dropped silently, not counted unrouted. *)
and rx t pkt =
  if t.up then
    match decision t pkt.Packet.dst with
    | Local -> deliver_local t pkt
    | d ->
        if not t.forwarding then t.unrouted <- t.unrouted + 1
        else if Packet.decrement_ttl pkt then emit t pkt d

let send t pkt = if t.up then emit t pkt (decision t pkt.Packet.dst)

let create eng ?(forwarding = false) nname =
  let t =
    {
      nname;
      eng;
      addrs = [];
      (* Size 1: chaos builds many small nodes. *)
      addr_set = Tbl.create 1;
      handlers = [];
      ifs = [];
      by_remote = Tbl.create 1;
      routes = Tbl.create 1;
      route_lens = [];
      decisions = Tbl.create 1;
      up = true;
      forwarding;
      unrouted = 0;
      unclaimed = 0;
      loopback = Engine.fifo eng ~label:"net.loopback" ~dummy:Packet.dummy;
    }
  in
  Engine.set_handler t.loopback (rx t);
  t

let attach t link side ~local ~remote =
  add_address t local;
  let i = { link; side; local; remote } in
  t.ifs <- i :: t.ifs;
  Tbl.replace t.by_remote (Addr.to_int remote) i;
  Tbl.clear t.decisions;
  Link.set_receiver link side (fun pkt -> rx t pkt)

let is_up t = t.up
let set_up t flag = t.up <- flag
let unrouted_packets t = t.unrouted
let unclaimed_packets t = t.unclaimed

open Sim

type registered_link = { link : Link.t; ends : Node.t * Node.t }

type t = {
  eng : Engine.t;
  node_tbl : (string, Node.t) Hashtbl.t;
  mutable link_list : registered_link list;
  mutable next_subnet : int;
  mutable next_private_subnet : int;
}

let create eng =
  { eng; node_tbl = Hashtbl.create 64; link_list = []; next_subnet = 0;
    next_private_subnet = 0 }

let fresh_private_subnet t =
  let n = t.next_private_subnet in
  t.next_private_subnet <- n + 1;
  n

let engine t = t.eng

let add_node t ?forwarding name =
  if Hashtbl.mem t.node_tbl name then
    invalid_arg (Printf.sprintf "Network.add_node: duplicate name %S" name);
  let node = Node.create t.eng ?forwarding name in
  Hashtbl.replace t.node_tbl name node;
  node

let connect t ?delay a b =
  let subnet = t.next_subnet in
  t.next_subnet <- subnet + 1;
  (* 10.s.s.{1,2} with the subnet index spread over two octets: room for
     65536 point-to-point links. *)
  let hi = (subnet lsr 8) land 0xFF and lo = subnet land 0xFF in
  let addr_a = Addr.of_octets 10 hi lo 1 in
  let addr_b = Addr.of_octets 10 hi lo 2 in
  let link = Link.create t.eng ?delay () in
  Node.attach a link Link.A ~local:addr_a ~remote:addr_b;
  Node.attach b link Link.B ~local:addr_b ~remote:addr_a;
  t.link_list <- { link; ends = (a, b) } :: t.link_list;
  (link, addr_a, addr_b)

let add_leaf t ?forwarding ?delay ~uplink name =
  let node = add_node t ?forwarding name in
  let _, uplink_side, node_side = connect t ?delay uplink node in
  Node.add_route node (Addr.prefix_of_string "0.0.0.0/0") uplink_side;
  (node, node_side)

let link_between t a b =
  let same (x, y) =
    (x == a && y == b) || (x == b && y == a)
  in
  match List.find_opt (fun r -> same r.ends) t.link_list with
  | Some r -> Some r.link
  | None -> None

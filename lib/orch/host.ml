open Sim
open Netsim

(* Control-plane RPC vocabulary between controller and host. *)
type Rpc.body +=
  | Host_check_container of string
  | Host_container_state of string
  | Host_kill_container of string
  | Host_fence
  | Host_ack

(* A host that hears no controller heartbeat for [lease] fences itself;
   a container boots in [container_boot] unless told otherwise. *)
let lease = Time.sec 3
let container_boot = Time.sec 1

type t = {
  hname : string;
  hnet : Network.t;
  hnode : Node.t;
  fabric : Node.t;
  link : Link.t;
  haddr : Addr.t;
  eng : Engine.t;
  mutable cts : Container.t list;
  mutable fenced : bool;
  mutable up : bool;
  mutable last_hb : Time.t option;
  mutable next_subnet : int;
}

let name t = t.hname
let node t = t.hnode
let addr t = t.haddr
let uplink t = t.link
let containers t = List.rev t.cts
let is_up t = t.up
let is_fenced t = t.fenced

let find_container t id =
  List.find_opt (fun c -> String.equal (Container.id c) id) t.cts

let heartbeat_received t = t.last_hb <- Some (Engine.now t.eng)

let last_heartbeat t =
  match t.last_hb with Some x -> x | None -> Time.zero

let fence t =
  if not t.fenced then begin
    t.fenced <- true;
    List.iter Container.kill_network t.cts
  end

let reset t =
  t.fenced <- false;
  t.last_hb <- None

let serve_control t =
  let ep = Rpc.endpoint t.hnode in
  Rpc.serve ep ~service:"health" (fun ~src:_ body ~reply ->
      heartbeat_received t;
      match body with Rpc.Ping -> reply Rpc.Pong | _ -> reply Rpc.Pong);
  Rpc.serve_ping ep ~service:"ipsla";
  Rpc.serve ep ~service:"host_ctl" (fun ~src:_ body ~reply ->
      match body with
      | Host_check_container id ->
          let st =
            match find_container t id with
            | Some c -> Format.asprintf "%a" Container.pp_state (Container.state c)
            | None -> "unknown"
          in
          reply (Host_container_state st)
      | Host_kill_container id ->
          (match find_container t id with
          | Some c -> Container.stop c
          | None -> ());
          reply Host_ack
      | Host_fence ->
          fence t;
          reply Host_ack
      | _ -> reply Host_ack)

let watch_lease t =
  ignore
    (Engine.every t.eng ~label:"orch.lease" (Time.ms 250) (fun () ->
         match t.last_hb with
         | Some hb
           when t.up && (not t.fenced)
                && Time.diff (Engine.now t.eng) hb > lease ->
             (* Lost the controller: assume we are the partitioned side
                and fence ourselves before the controller migrates. *)
             fence t
         | _ -> ()))

let create net ~fabric hname =
  let hnode = Network.add_node net ~forwarding:true hname in
  let fabric_node = fabric in
  let link, haddr, fabric_addr =
    Network.connect net ~delay:(Time.us 20) fabric hnode
  in
  (* The connect call returns (fabric side, host side): first address
     belongs to the first node argument. *)
  let haddr, fabric_addr = (fabric_addr, haddr) in
  let t =
    {
      hname;
      hnet = net;
      hnode;
      fabric = fabric_node;
      link;
      haddr;
      eng = Network.engine net;
      cts = [];
      fenced = false;
      up = true;
      last_hb = None;
      next_subnet = 0;
    }
  in
  Node.add_route hnode (Addr.prefix_of_string "0.0.0.0/0") fabric_addr;
  serve_control t;
  watch_lease t;
  t

let veth_base = Addr.of_string "172.16.0.0"

let create_container t ?boot_span id =
  if find_container t id <> None then
    invalid_arg (Printf.sprintf "Host.create_container: duplicate id %s" id);
  let eng = t.eng in
  let cnode = Node.create eng (t.hname ^ "/" ^ id) in
  (* vEth pair: a private /30 per container, host side .1, container .2.
     Subnets are allocated per network so no two containers in one
     deployment share one (they are only ever used host-locally, but
     uniqueness keeps traces unambiguous — and per-network allocation
     keeps the addresses identical across repeated runs in a process,
     which chaos replay relies on). *)
  let subnet = Network.fresh_private_subnet t.hnet in
  t.next_subnet <- t.next_subnet + 1;
  let host_side = Addr.offset veth_base ((subnet lsl 2) lor 1) in
  let cont_side = Addr.succ host_side in
  let veth = Link.create eng ~delay:(Time.us 5) ~name:(t.hname ^ "/" ^ id ^ "/veth") () in
  Node.attach t.hnode veth Link.A ~local:host_side ~remote:cont_side;
  (* Fabric reaches the container's vEth subnet via this host (used by the
     controller's gRPC channel to the container instance). *)
  Node.add_route t.fabric (Addr.prefix host_side 30) t.haddr;
  Node.attach cnode veth Link.B ~local:cont_side ~remote:host_side;
  Node.add_route cnode (Addr.prefix_of_string "0.0.0.0/0") host_side;
  (* The container starts dark until booted. *)
  Node.set_up cnode false;
  let host_route vip = Node.add_route t.hnode (Addr.prefix vip 32) cont_side in
  let c =
    Container.internal_make ~id ~host_name:t.hname ~node:cnode
      ~veth_addr:cont_side ~host_route
      ~boot_span:(Option.value boot_span ~default:container_boot)
  in
  t.cts <- c :: t.cts;
  c

let memory_used_mb t =
  List.fold_left
    (fun acc c ->
      if Container.state c = Container.Running then acc +. Container.mem_mb c
      else acc)
    0.0 t.cts

let cpu_used_pct t =
  List.fold_left
    (fun acc c ->
      if Container.state c = Container.Running then acc +. Container.cpu_pct c
      else acc)
    0.0 t.cts

let fail t =
  t.up <- false;
  Node.set_up t.hnode false;
  List.iter Container.fail t.cts

let recover t =
  t.up <- true;
  t.fenced <- true (* no re-use before manual reset *);
  Node.set_up t.hnode true

let network_fail t = Link.set_up t.link false
let network_recover t = Link.set_up t.link true

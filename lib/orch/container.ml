open Sim
open Netsim

type state = Created | Booting | Running | Failed | Stopped

let m_booted = Telemetry.Registry.counter "orch.containers_booted"
let m_failed = Telemetry.Registry.counter "orch.containers_failed"
let m_stopped = Telemetry.Registry.counter "orch.containers_stopped"


let pp_state fmt s =
  Format.pp_print_string fmt
    (match s with
    | Created -> "created"
    | Booting -> "booting"
    | Running -> "running"
    | Failed -> "failed"
    | Stopped -> "stopped")

type t = {
  cid : string;
  hname : string;
  cnode : Node.t;
  veth : Addr.t;
  host_route : Addr.t -> unit;
  bspan : Time.span;
  mutable st : state;
  mutable hooks : (t -> unit) list;
  mutable vips : Addr.t list;
  mutable mem : float;
  mutable cpu : float;
}

let internal_make ~id ~host_name ~node ~veth_addr ~host_route ~boot_span =
  {
    cid = id;
    hname = host_name;
    cnode = node;
    veth = veth_addr;
    host_route;
    bspan = boot_span;
    st = Created;
    hooks = [];
    vips = [];
    mem = 250.0;
    cpu = 0.055;
  }

let id t = t.cid
let node t = t.cnode
let host_name t = t.hname
let state t = t.st
let veth_addr t = t.veth
let boot_span t = t.bspan
let on_running t f = t.hooks <- t.hooks @ [ f ]

let assign_service_addr t vip =
  if not (List.exists (Addr.equal vip) t.vips) then begin
    t.vips <- t.vips @ [ vip ];
    Node.add_address t.cnode vip;
    t.host_route vip
  end

let set_resources t ~mem_mb ~cpu_pct =
  t.mem <- mem_mb;
  t.cpu <- cpu_pct

let mem_mb t = t.mem
let cpu_pct t = t.cpu

let boot t =
  match t.st with
  | Booting | Running -> ()
  | Created | Failed | Stopped ->
      t.st <- Booting;
      let eng = Node.engine t.cnode in
      ignore
        (Engine.schedule_after eng ~label:"orch.boot" t.bspan (fun () ->
             if t.st = Booting then begin
               Node.set_up t.cnode true;
               Rpc.serve_ping (Rpc.endpoint t.cnode) ~service:"health";
               t.st <- Running;
               Telemetry.Registry.incr m_booted;
               if Telemetry.Gate.on () then
                 Telemetry.Bus.emit eng
                   (Telemetry.Event.Container_state
                      { id = t.cid; host = t.hname; state = "running" });
               List.iter (fun f -> f t) t.hooks
             end))

let fail t =
  if t.st <> Stopped then begin
    t.st <- Failed;
    Telemetry.Registry.incr m_failed;
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit (Node.engine t.cnode)
        (Telemetry.Event.Container_state
           { id = t.cid; host = t.hname; state = "failed" });
    Node.set_up t.cnode false
  end

let stop t =
  if t.st <> Stopped then begin
    Telemetry.Registry.incr m_stopped;
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit (Node.engine t.cnode)
        (Telemetry.Event.Container_state
           { id = t.cid; host = t.hname; state = "stopped" })
  end;
  t.st <- Stopped;
  Node.set_up t.cnode false

let kill_network t = Node.set_up t.cnode false

open Sim
module Deploy = Tensor.Deploy

(* The rolling-upgrade wave planner: drain→upgrade→resume every
   instance of the fleet, at most [bound] concurrently, never both
   replicas of a service at once, and pausing launches while the
   controller has failure migrations in flight ("never upgrade into an
   incident"). Each drain is an ordinary planned NSR migration, so the
   remote ASes observe nothing. *)

type t = {
  topo : Topology.t;
  bound : int;
  mutable queue : int list;  (* instance indices not yet launched *)
  draining : (string, unit) Hashtbl.t;  (* services with a drain in flight *)
  mutable inflight : int;
  mutable launched : int;
  mutable completed : int;
  mutable cheated : bool;  (* exceed_wave_bound fired already *)
  mutable retry_armed : bool;
}

let inflight t = t.inflight
let completed t = t.completed
let finished t = t.completed = Array.length t.topo.Topology.instances

let retry_period = Time.ms 500

(* First queued instance whose service has no drain in flight; removes
   it from the queue (preserving order for the skipped prefix). *)
let take_launchable t =
  let rec go acc = function
    | [] -> None
    | i :: rest ->
        let inst = t.topo.Topology.instances.(i) in
        if Hashtbl.mem t.draining inst.Topology.service then
          go (i :: acc) rest
        else begin
          t.queue <- List.rev_append acc rest;
          Some inst
        end
  in
  go [] t.queue

let rec pump t =
  let dep = t.topo.Topology.dep in
  let eng = dep.Deploy.eng in
  if Orch.Controller.failure_migrations_active dep.Deploy.ctrl > 0 then
    (* Failure-aware pause: an incident owns the fleet's change budget;
       in-flight drains finish, no new one launches. *)
    arm_retry t eng
  else begin
    (* The seeded planner bug for the fleet_slo mutation test: launch
       exactly one drain past the bound, once. *)
    let allowed =
      if !Monitor.Faults.exceed_wave_bound && not t.cheated then t.bound + 1
      else t.bound
    in
    if t.inflight < allowed then begin
      match take_launchable t with
      | None -> if t.queue <> [] then arm_retry t eng
      | Some inst ->
          if t.inflight >= t.bound then t.cheated <- true;
          t.inflight <- t.inflight + 1;
          t.launched <- t.launched + 1;
          let wave = ((t.launched - 1) / t.bound) + 1 in
          Hashtbl.replace t.draining inst.Topology.service ();
          Telemetry.Bus.emit eng
            (Telemetry.Event.Upgrade_started
               {
                 instance = inst.Topology.id;
                 wave;
                 inflight = t.inflight;
                 bound = t.bound;
               });
          Deploy.planned_migration dep
            ~done_:(fun cont ->
              t.inflight <- t.inflight - 1;
              t.completed <- t.completed + 1;
              Hashtbl.remove t.draining inst.Topology.service;
              Telemetry.Bus.emit eng
                (Telemetry.Event.Upgrade_done
                   {
                     instance = inst.Topology.id;
                     wave;
                     container = Orch.Container.id cont;
                   });
              if not (finished t) then pump t)
            inst.Topology.svc;
          pump t
    end
  end

and arm_retry t eng =
  if (not t.retry_armed) && t.queue <> [] then begin
    t.retry_armed <- true;
    ignore
      (Engine.schedule_after eng ~label:"fleet.wave_retry" retry_period
         (fun () ->
           t.retry_armed <- false;
           pump t))
  end

let start topo ~bound =
  let bound = max 1 bound in
  let t =
    {
      topo;
      bound;
      queue = List.init (Array.length topo.Topology.instances) Fun.id;
      draining = Hashtbl.create 16;
      inflight = 0;
      launched = 0;
      completed = 0;
      cheated = false;
      retry_armed = false;
    }
  in
  pump t;
  t

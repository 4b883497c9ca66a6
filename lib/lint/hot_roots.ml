(* The annotated-root manifests for the interprocedural passes, the
   same convention as p1's FSM manifest: a static list the passes trust
   and the tree must keep honest. A new hot entry point (another
   dispatch loop, another codec, another digest) is INVISIBLE to
   h1/d5/p3 until it is added here — adding the root is part of the
   change that introduces it, and the review checklist in README's
   "Static analysis" section says so. *)

type root = {
  rt_file : string;  (* repo-relative, e.g. "lib/sim/engine.ml" *)
  rt_fns : string list;  (* top-level (or "M.f"-qualified) names *)
  rt_label : string;  (* human label carried into finding messages *)
}

(* Entry points whose transitive callees execute per simulated event or
   per packet/segment/update — the paths that set the events/s ceiling
   (ROADMAP item 2). Budgeted by h1 (allocation) and p3 (panics). *)
let hot_paths =
  [
    {
      rt_file = "lib/sim/engine.ml";
      rt_fns =
        [ "exec"; "step"; "run"; "run_until"; "schedule_at"; "set_deadline" ];
      rt_label = "engine dispatch";
    };
    {
      rt_file = "lib/tcp/tcp.ml";
      rt_fns =
        [
          "conn_rx";
          "established_process";
          "process_ack";
          "process_data";
          "process_fin";
          "try_send";
          "send_seg";
          "raw_send";
        ];
      rt_label = "tcp rx/tx";
    };
    {
      rt_file = "lib/bgp/msg.ml";
      rt_fns = [ "encode"; "decode" ];
      rt_label = "bgp codec";
    };
    {
      rt_file = "lib/bgp/rib.ml";
      rt_fns = [ "update"; "install"; "fold_best"; "digest" ];
      rt_label = "rib fold";
    };
    {
      rt_file = "lib/netsim/node.ml";
      rt_fns = [ "emit"; "rx" ];
      rt_label = "packet delivery";
    };
    {
      rt_file = "lib/netsim/link.ml";
      rt_fns = [ "transmit" ];
      rt_label = "packet delivery";
    };
    (* Every BFD session sends and receives a control packet per
       100 ms interval, and each receive re-arms the detect deadline. *)
    {
      rt_file = "lib/bfd/bfd.ml";
      rt_fns = [ "handle_packet"; "send_control" ];
      rt_label = "bfd rx/tx";
    };
    (* Every Loc-RIB change writes one checkpoint record and key, and
       every received message one in| record; the out| records
       hex-encode every sent frame. The replicator's entry points and
       the store's batch apply are budgeted with the codec, so a
       per-record list or copy in the batching shows here too. *)
    {
      rt_file = "lib/tensor/keys.ml";
      rt_fns = [ "encode_rib_entry_with"; "rib_key"; "hex" ];
      rt_label = "replicator checkpoint codec";
    };
    {
      rt_file = "lib/tensor/replicator.ml";
      rt_fns = [ "on_rib_change"; "on_rx_message" ];
      rt_label = "replicator checkpoint codec";
    };
    {
      rt_file = "lib/store/store.ml";
      rt_fns = [ "Server.apply_set" ];
      rt_label = "replicator checkpoint codec";
    };
    (* Fleet-scale per-event entry points: the capture a campaign runs
       under sees every bus entry (its SLO report folds the captured
       list once, afterwards), and the store probers tick per region
       every 500 ms across hundreds of instances. *)
    {
      rt_file = "lib/telemetry/control.ml";
      rt_fns = [ "capture" ];
      rt_label = "bus capture";
    };
    {
      rt_file = "lib/fleet/topology.ml";
      rt_fns = [ "arm_store_probers" ];
      rt_label = "fleet store probe";
    };
    {
      rt_file = "lib/monitor/checker.ml";
      rt_fns = [ "fleet_mark_up"; "fleet_mark_down" ];
      rt_label = "fleet slo checker";
    };
  ]

(* Functions whose output feeds a replay/equivalence digest: anything
   nondeterministic reachable from here silently breaks byte-identical
   replay. Audited by d5 at error severity, unbounded depth. *)
let digest_feeding =
  [
    {
      rt_file = "lib/bgp/rib.ml";
      rt_fns = [ "digest" ];
      rt_label = "rib digest";
    };
    {
      rt_file = "lib/tensor/check.ml";
      rt_fns = [ "snapshot_session" ];
      rt_label = "session snapshot digest";
    };
    {
      rt_file = "lib/chaos/runner.ml";
      rt_fns = [ "run" ];
      rt_label = "chaos run digest";
    };
    (* Fleet campaigns replay byte-identically across --jobs settings:
       everything the run executes — wave pump included — feeds the
       campaign digest. *)
    {
      rt_file = "lib/fleet/campaign.ml";
      rt_fns = [ "run" ];
      rt_label = "fleet campaign digest";
    };
    {
      rt_file = "lib/fleet/waves.ml";
      rt_fns = [ "pump" ];
      rt_label = "fleet upgrade wave";
    };
  ]

let as_roots manifest =
  List.concat_map
    (fun r -> List.map (fun fn -> (r.rt_file, fn, r.rt_label)) r.rt_fns)
    manifest

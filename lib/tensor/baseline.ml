open Sim

let frr =
  {
    Bgp.Speaker.profile_name = "FRRouting";
    rx_per_update = Time.us 4;
    rx_per_msg = Time.us 30;
    tx_per_update = Time.us 3;
    tx_per_msg = Time.us 20;
    tx_clone_per_msg = Time.us 20;
    tx_coalesce = Time.ms 35;
    update_packing = true;
  }

let gobgp =
  {
    Bgp.Speaker.profile_name = "GoBGP";
    rx_per_update = Time.of_us_f 5.5;
    rx_per_msg = Time.us 35;
    (* No update packing: every peer pays full generation cost. *)
    tx_per_update = Time.us 6;
    tx_per_msg = Time.us 30;
    tx_clone_per_msg = Time.us 25;
    tx_coalesce = Time.ms 45;
    update_packing = false;
  }

let bird =
  {
    Bgp.Speaker.profile_name = "BIRD";
    rx_per_update = Time.us 6;
    rx_per_msg = Time.us 28;
    tx_per_update = Time.of_us_f 3.2;
    tx_per_msg = Time.us 18;
    (* BIRD's per-peer export machinery scales worse with peer count:
       the Figure 6(c) crossover against TENSOR near 600 peers. *)
    tx_clone_per_msg = Time.us 33;
    tx_coalesce = Time.ms 28;
    update_packing = true;
  }

let tensor =
  {
    Bgp.Speaker.profile_name = "TENSOR";
    (* Same engine as FRR plus replication bookkeeping on the receive
       path (the tcp_queue's matching work); the store write/read
       latencies are real and come from the Replicator. *)
    rx_per_update = Time.of_us_f 6.5;
    rx_per_msg = Time.us 40;
    tx_per_update = Time.us 3;
    tx_per_msg = Time.us 20;
    tx_clone_per_msg = Time.us 28;
    tx_coalesce = Time.ms 40;
    update_packing = true;
  }

type recovery = {
  detect : Time.span;
  human_initiate : Time.span;
  repair : Time.span;
  reconnect : Time.span;
  resync : Time.span;
}

let recovery_for (kind : Orch.Controller.failure_kind) =
  match kind with
  | Orch.Controller.App_failure ->
      (* Hold-timer/monitoring detection ~1 s, operator restarts the BGP
         process ~20 s, reconnect ~1 s, re-learn ~5 s  →  ~30 s total. *)
      {
        detect = Time.sec 1;
        human_initiate = Time.sec 3;
        repair = Time.sec 20;
        reconnect = Time.sec 1;
        resync = Time.sec 5;
      }
  | Orch.Controller.Container_failure ->
      (* Not applicable to the baselines (no virtualization); modelled as
         an application restart for completeness. *)
      {
        detect = Time.sec 1;
        human_initiate = Time.sec 3;
        repair = Time.sec 20;
        reconnect = Time.sec 1;
        resync = Time.sec 5;
      }
  | Orch.Controller.Host_failure ->
      (* Machine reboot with console access: ~15 s to notice, ~200 s to
         power-cycle and reload configurations, then reconnect+resync. *)
      {
        detect = Time.sec 15;
        human_initiate = Time.sec 5;
        repair = Time.sec 205;
        reconnect = Time.sec 5;
        resync = Time.sec 10;
      }
  | Orch.Controller.Host_network_failure ->
      (* No reboot: wait out the outage, then reconnect. *)
      {
        detect = Time.sec 5;
        human_initiate = 0;
        repair = Time.sec 5;
        reconnect = Time.sec 5;
        resync = Time.sec 10;
      }

let total r = r.detect + r.human_initiate + r.repair + r.reconnect + r.resync

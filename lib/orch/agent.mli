(** The agent server (§3.3.2).

    A plain (non-containerized) server that (i) runs duplicate BFD
    transmitters — {!Bfd.Relay} — for every container in the cluster, so
    a primary's silence during reboot or migration is never observed by
    the remote AS, and (ii) answers the controller's IP SLA check
    requests, providing the independent measurement point that host-level
    failure localization requires.

    The agent is weakly coupled: its own failure does not disturb normal
    operation (relays are redundant transmissions while the primary is
    healthy), matching the paper's availability argument. *)

type Netsim.Rpc.body +=
  | Agent_check of Netsim.Addr.t
  | Agent_check_result of bool

type t

val create : Netsim.Network.t -> fabric:Netsim.Node.t -> string -> t
(** Joins the fabric and serves ["health"], ["ipsla"] and ["agent_ctl"]
    (the {!Agent_check} probe service). *)

val addr : t -> Netsim.Addr.t

val start_relay :
  t ->
  id:string ->
  src:Netsim.Addr.t ->
  dst:Netsim.Addr.t ->
  vrf:string ->
  my_disc:int ->
  your_disc:int ->
  unit
(** Starts (or replaces) the duplicate BFD transmitter for a container
    session, keyed by [id ^ vrf]. *)

(** {1 Test-only} *)

val relay_count : t -> int
(** Inspection: live relays, so tests check that restarting one
    replaces it. *)

(** Deployment-scale check (§4.4 "Operational experience").

    The paper's production fleet runs 400 servers with 31 000 BGP
    connections at zero link downtime. This experiment stands up a
    scaled-down echo — dozens of hosts, one containerized service per
    peering AS — drives routes everywhere, then kills an entire host
    (migrating its whole batch of services at once) and verifies the
    fleet-wide invariant: not one of the peering ASes observes anything.

    It doubles as a scalability check on the simulator itself: the
    returned statistics include the event count and wall time. *)

type result = {
  hosts : int;
  services : int;
  established_s : float;  (** Wall of simulated time to bring all up. *)
  routes_total : int;
  host_failure_migrated : int;  (** Services moved by the host failure. *)
  peer_drops : int;  (** Must be 0. *)
  sim_events : int;
  wall_s : float;
}

val run : hosts:int -> services:int -> routes_per_service:int -> result
(** [hosts] machines (the last starts empty), [services] services with
    one peering AS each, every AS originating [routes_per_service]. *)

val print : result -> unit

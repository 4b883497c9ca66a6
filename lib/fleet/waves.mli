(** The rolling-upgrade wave planner.

    Drains every fleet instance through an ordinary planned NSR
    migration ({!Tensor.Deploy.planned_migration}), at most [bound]
    concurrently, never both replicas of one service at once, and
    pausing new launches while the controller reports failure
    migrations in flight ({!Orch.Controller.failure_migrations_active})
    — an incident always preempts the upgrade. Each drain emits
    [Upgrade_started] (with the planner's in-flight count and the
    bound) and [Upgrade_done]; the [fleet_slo] checker recomputes the
    in-flight count independently and flags any excursion past the
    bound. *)

type t

val start : Topology.t -> bound:int -> t
(** Starts the wave over every instance, in instance order ([bound] is
    clamped to at least 1). *)

val inflight : t -> int
val completed : t -> int
val finished : t -> bool

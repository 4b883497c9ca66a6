(** Deterministic pseudo-random numbers for the simulator.

    Every engine owns one generator seeded explicitly, so a run is fully
    reproducible from its seed. The generator is SplitMix64, which has good
    statistical quality for simulation purposes and a trivially portable
    implementation. Generators can be split so independent subsystems draw
    from independent streams without perturbing each other. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives a new independent generator, advancing [t] once. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [lognormal t ~mu ~sigma] is [exp (gaussian ~mu ~sigma)]: the
    parameters are those of the underlying normal, so the median is
    [exp mu]. *)

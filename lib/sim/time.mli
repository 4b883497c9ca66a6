(** Simulated time.

    All simulation clocks count integer nanoseconds from the start of the
    run. A 63-bit OCaml [int] holds about 292 simulated years, far beyond
    any experiment in this repository. [t] is an absolute instant; [span]
    is a duration. Both are plain ints so they can be compared and stored
    without allocation. *)

type t = int
(** An absolute instant, in nanoseconds since simulation start. *)

type span = int
(** A duration in nanoseconds. Negative spans are not meaningful and are
    rejected by the engine when scheduling. *)

val zero : t
(** The simulation epoch. *)

val ns : int -> span
(** [ns n] is a span of [n] nanoseconds. *)

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a span of [n] milliseconds. *)

val sec : int -> span
(** [sec n] is a span of [n] seconds. *)

val minutes : int -> span
(** [minutes n] is a span of [n] minutes. *)

val of_sec_f : float -> span
(** [of_sec_f s] converts fractional seconds to a span, rounding to the
    nearest nanosecond. *)

val of_ms_f : float -> span
(** [of_ms_f m] converts fractional milliseconds to a span. *)

val of_us_f : float -> span
(** [of_us_f u] converts fractional microseconds to a span. *)

val to_sec_f : span -> float
(** [to_sec_f s] is the span in fractional seconds. *)

val to_ms_f : span -> float
(** [to_ms_f s] is the span in fractional milliseconds. *)

val to_us_f : span -> float
(** [to_us_f s] is the span in fractional microseconds. *)

val add : t -> span -> t
(** [add t s] is the instant [s] after [t]. *)

val diff : t -> t -> span
(** [diff later earlier] is the (possibly negative) span between two
    instants. *)

val pp : Format.formatter -> t -> unit
(** Pretty-prints an instant with an adaptive unit, e.g. ["1.250s"],
    ["350.0ms"], ["75us"]. *)

val pp_span : Format.formatter -> span -> unit
(** Same rendering as {!pp}, for durations. *)

val to_string : t -> string
(** [to_string t] is {!pp} rendered to a string. *)

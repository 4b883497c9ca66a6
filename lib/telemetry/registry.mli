(** The global metrics registry.

    Named counters, gauges and log-bucketed histograms that register
    themselves on creation (typically as module toplevels next to the
    code they instrument) and export en masse to JSON. Creation
    is idempotent by name — asking for an existing metric of the same
    kind returns it — so instrumented libraries can be (re)initialized
    freely; a name collision across kinds is a programming error and
    raises [Invalid_argument].

    Updates are deliberately NOT gated on {!Gate}: bumping an [int ref]
    is as cheap as the gate check would be, so registered metrics are
    always live (like the per-connection stats that predate this
    module). {!reset_values} zeroes everything between runs.

    Registrations are domain-local. A metric created at module
    initialisation is registered on the main domain only, so {!all} and
    {!to_json} read it there; a worker domain's registry starts empty,
    although its runs bump the same cells. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_int : gauge -> int -> unit
(** [set g (float_of_int v)] without boxing the intermediate float —
    use on hot paths that track integer depths or counts. *)

val set_max_int : gauge -> int -> unit
(** Raises the gauge to [v] if above its current value — a high-water
    mark — allocation-free like {!set_int}. *)

val gauge_value : gauge -> float

(** {1 Log-bucketed histograms} *)

type histogram

val histogram : string -> histogram
(** Buckets are powers of two: an observation [v] falls in the bucket
    with exclusive upper bound [2^k] where [2^(k-1) <= v < 2^k];
    non-positive and NaN observations land in a dedicated bucket with
    upper bound [0]. Bounds span [2^-30, 2^33] seconds-ish; values
    outside, +infinity included, clamp to the extreme buckets. *)

val observe : histogram -> float -> unit
(** Files one observation; allocates nothing. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

(** {1 Enumeration and export} *)

type metric =
  | Counter of string * counter
  | Gauge of string * gauge
  | Histogram of string * histogram

val all : unit -> metric list
(** Every registered metric, in registration order. *)

val to_json : unit -> string
(** [{"metrics":[{"name":..,"kind":..,..}, ...]}] with histogram
    buckets included; a non-finite value is [null]. *)

val reset_values : unit -> unit
(** Zeroes every metric, keeping registrations. *)

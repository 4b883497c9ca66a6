(** Fuzz campaigns: generate → run → (on failure) shrink → save.

    Run [i] of a campaign seeded with [S] executes the descriptor
    [Descriptor.generate ~seed:(Descriptor.sub_seed ~seed:S i)], so any
    individual failure is reproducible from [(S, i)] alone — and the
    shrunk one-line descriptor makes even that indirection unnecessary. *)

type failure = {
  index : int;  (** Campaign run index. *)
  outcome : Runner.outcome;
  shrunk : Shrink.result option;  (** Present when shrinking was on. *)
  saved : string option;  (** Corpus path the repro was written to. *)
}

type campaign = {
  runs : int;
  seed : int;
  failures : failure list;
  events_total : int;
  pool : Par.Pool.stats;  (** Domain-pool accounting for the campaign. *)
}

val campaign_ok : campaign -> bool

val run :
  progress:(int -> Runner.outcome -> unit) ->
  ?shrink_to:string ->
  ?jobs:int ->
  runs:int ->
  seed:int ->
  unit ->
  campaign
(** [shrink_to dir] minimizes each failure and writes each minimal
    repro into corpus directory [dir]. [progress] is called after every
    run, in run order.

    [jobs] (default 1) spreads runs across that many OCaml domains via
    {!Par.Pool}. The campaign record, every per-run digest, the
    [progress] call order and any corpus files written are
    byte-identical whatever [jobs] is — parallelism buys wall time
    only. *)

(** A deterministic domain pool for embarrassingly parallel runs.

    [run n f] evaluates [f 0 .. f (n-1)] — each call self-contained and
    deterministic, like one chaos run — across OCaml 5 domains, and
    merges the results in index order. The contract that makes
    [--jobs N] safe everywhere it is surfaced:

    {ul
    {- {b Results are in index order}, never completion order: the
       returned array is indistinguishable from the sequential one.}
    {- {b Progress is in index order}: the [progress] callback fires on
       the calling domain, for index 0, then 1, then 2 … as the
       contiguous prefix of completed tasks extends. Anything printed
       from it is byte-identical no matter how many domains ran or how
       they were scheduled.}
    {- {b Tasks never share mutable state}: every library the runs
       touch keeps its per-run state domain-local (enforced statically
       by the [d4] lint pass), so a task executes on a worker domain
       exactly as it would alone on a fresh process.}
    {- {b Exceptions hold the merge order}: if tasks failed, the
       exception of the lowest failed index is re-raised (with its
       backtrace) after all workers drain — the same exception a
       sequential loop would have surfaced first.}}

    With [jobs <= 1] (the default) no domain is spawned: [f] runs in
    the calling domain, so single-job behaviour is trivially identical
    to the pre-pool sequential code. *)

type domain_stat = {
  domain_index : int;  (** 0-based worker index *)
  tasks : int;  (** tasks this worker completed *)
  busy_s : float;  (** wall time spent inside [f] *)
  sim_events : int;  (** engine events executed on this domain *)
}

type stats = {
  jobs : int;  (** worker domains actually used (>= 1) *)
  elapsed_s : float;  (** wall time of the whole [run] call *)
  domains : domain_stat list;  (** per-worker accounting, by index *)
}

val speedup : stats -> float
(** [busy_total / elapsed]: pool occupancy. ~1.0 when sequential,
    approaches [jobs] under perfect scaling. Busy time is wall time
    spent inside tasks, so when domains outnumber cores preemption
    inflates it — for a true speedup, compare [elapsed_s] against a
    [jobs:1] run of the same workload ([tensor-cli fuzz --jobs N]
    prints this accounting on stderr for either). *)

val run :
  ?jobs:int ->
  ?progress:(int -> 'a -> unit) ->
  int ->
  (int -> 'a) ->
  'a array * stats
(** [run ?jobs ?progress n f] evaluates [f i] for [0 <= i < n] on
    [min jobs n] worker domains (claiming indices dynamically, so a
    slow task never stalls the pool) and returns the results in index
    order. Raises [Invalid_argument] when [n < 0]. *)

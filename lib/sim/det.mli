(** Deterministic, sorted traversal of hash tables.

    [Hashtbl] iteration order depends on hash values and insertion
    history, so any fold that feeds a digest, a snapshot, telemetry, or
    printed output must go through these helpers instead (lint pass
    [d1]: this module is the only place allowed to traverse a [Hashtbl]
    directly). All traversals visit keys in ascending [compare] order.

    Tables populated with [Hashtbl.add] (shadowed bindings) expose every
    binding, like [Hashtbl.fold] does; the repo's tables use [replace]
    throughout, so each key appears once. *)

val keys : compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list
(** Keys in ascending order. *)

val keys_where :
  compare:('k -> 'k -> int) -> keep:('k -> bool) -> ('k, 'v) Hashtbl.t -> 'k list
(** The keys [keep] accepts, in ascending order. Only those are
    sorted, so a narrow filter over a large table stays cheap. *)

val iter_sorted :
  compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit

val fold_sorted :
  compare:('k -> 'k -> int) ->
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
(** Left fold in ascending key order. *)

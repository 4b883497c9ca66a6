(** Routing information bases and the BGP decision process.

    One [Rib.t] is a per-VRF table holding every path learned for every
    prefix (the union of the Adj-RIBs-In) together with a cached best
    path (the Loc-RIB view). Updates return the resulting best-path
    change, which the speaker propagates to its Adj-RIBs-Out.

    The decision process implements RFC 4271 §9.1: highest LOCAL_PREF,
    shortest AS path, lowest origin, lowest MED (compared only between
    paths from the same neighbouring AS), eBGP over iBGP, lowest router
    id, lowest peer address. The comparison is a total order over the
    candidate set, which the property tests rely on.

    Paths can be marked stale for graceful restart (RFC 4724): stale
    paths keep forwarding (remain eligible) until refreshed by the
    restarted peer or swept when the restart timer fires.

    The table is flat. Each prefix is packed into one int, the base
    shifted above the 6-bit length, and packed keys order exactly like
    {!Netsim.Addr.compare_prefix}. Prefix slots are open-addressed with
    linear probing over three parallel arrays: the key, the prefix's
    newest path, and the first node of a chain holding its older paths,
    newest first, in two more parallel arrays (the node pool). A prefix
    with one path is its slot alone, so a table whose prefixes each have
    one path never allocates the pool; installing or withdrawing a path
    allocates nothing per prefix. The best path is the one the decision
    process picks over the whole chain, newest first: a prefix's own path
    when it has one, a fold over a few paths otherwise. A prefix that
    loses its last path leaves a tombstone: probes run through it, a
    later insert may reuse it, and slot indices stay stable while a
    source is walked. The table starts at 16 slots and rehashes when live
    slots and tombstones pass 3/4 of them, doubling when live slots alone
    pass 3/8; {!reserve} takes a batch's growth in one step. Traversals
    that report in prefix order ({!fold_best}, {!remove_source},
    {!sweep_stale}) sort the live packed keys, so their output does not
    depend on the insertion history.

    The batch entry points ({!install}, {!withdraw}, {!remove_source},
    {!sweep_stale}) append the best-path changes they cause to a
    {!Changes.t} that the caller owns and reuses, so a batch of changes
    costs no list cell, change value or reversal. *)

type source = {
  key : string;  (** Unique per session, e.g. ["vrf0/10.0.0.2"]. *)
  peer_asn : int;
  peer_addr : Netsim.Addr.t;
  router_id : Netsim.Addr.t;
  ebgp : bool;
}

type path = { source : source; attrs : Attrs.t; stale : bool }

type change =
  | Best_changed of Netsim.Addr.prefix * path
  | Best_withdrawn of Netsim.Addr.prefix

(** A batch of best-path changes, in the order the table reported them,
    kept in two arrays that grow by doubling and are reused from batch to
    batch: once a buffer has held its largest batch, appending allocates
    nothing. *)
module Changes : sig
  type t

  val create : unit -> t

  val clear : t -> unit
  (** Empties the buffer for the next batch (its arrays stay). *)

  val length : t -> int

  val withdrawals : t -> int
  (** How many of the changes are withdrawals. *)

  val add : t -> Netsim.Addr.prefix -> path -> unit
  (** Appends a best-path change: [prefix] now has best path [path]. *)

  val prefix : t -> int -> Netsim.Addr.prefix
  (** The [i]th change's prefix, [0 <= i < length]. *)

  val withdrawn : t -> int -> bool
  (** Whether the [i]th change is a withdrawal. *)

  val path : t -> int -> path
  (** The [i]th change's new best path; raises [Invalid_argument] for a
      withdrawal. Allocates nothing. *)

  val change : t -> int -> change
  (** The [i]th change as a {!change} value (which it allocates). *)
end

type t

val create : unit -> t

val update :
  t -> source -> Netsim.Addr.prefix -> Attrs.t option -> change option
(** [update t src prefix (Some attrs)] installs or replaces the path from
    [src]; [update t src prefix None] withdraws it. Returns the best-path
    change if the Loc-RIB view of [prefix] changed. A refreshed path
    clears any stale mark. *)

val install : t -> path -> Netsim.Addr.prefix -> Changes.t -> unit
(** [install t path prefix buf] stores the pre-built [path] for [prefix]
    in place of [path.source]'s previous one, as [update t path.source
    prefix (Some path.attrs)] does, and appends the best-path change, if
    any, to [buf]. All prefixes of one UPDATE or origination can share
    one [path] record; it is stored as given, so pass it unmarked. *)

val withdraw : t -> source -> Netsim.Addr.prefix -> Changes.t -> unit
(** [withdraw t src prefix buf] is [update t src prefix None] appending
    its change, if any, to [buf]. *)

val reserve : t -> int -> unit
(** [reserve t n] grows the table at once to the size that holding [n]
    prefixes, each with one path, would grow it to one insert at a time;
    it does nothing if the table is that large already. Call it before
    installing a batch of [n] distinct prefixes: the table ends the batch
    at least that full, so it ends no larger than without the call, and
    the batch triggers no rehash on the way. *)

val best : t -> Netsim.Addr.prefix -> path option

val size : t -> int
(** Prefixes with at least one path. *)

val fold_best : t -> init:'a -> f:('a -> Netsim.Addr.prefix -> path -> 'a) -> 'a
(** Folds over the Loc-RIB (best path per prefix). *)

val best_prefixes : source_key:string -> t -> string list
(** Sorted best-path prefixes whose best path was learned from
    [source_key]. *)

val digest : ?source_key:string -> t -> string
(** Order-insensitive fingerprint (FNV-1a, hex) of {!best_prefixes}:
    two tables covering the same prefix set digest equally regardless
    of path attributes, which legitimately differ between the
    advertising and the learning side. *)

val remove_source : t -> key:string -> Changes.t -> unit
(** Session death without graceful restart: drop every path from the
    source and append every best-path change to the buffer, in prefix
    order. *)

val mark_source_stale : t -> key:string -> int
(** Graceful restart entered: mark the source's paths stale (they remain
    in use). Returns how many were marked. *)

val sweep_stale : t -> key:string -> Changes.t -> unit
(** Restart timer expiry or End-of-RIB: remove the source's still-stale
    paths and append the changes to the buffer, in prefix order. *)

(** {1 Test-only} *)

val candidates : t -> Netsim.Addr.prefix -> path list
(** Inspection: all paths for the prefix, best first; {!best} shows only
    the head. *)

val prefix_hash : Netsim.Addr.prefix -> int
(** Inspection: the Loc-RIB table's hash, which tests check spreads
    aligned prefixes: base and length packed into one int and
    mixed by {!Netsim.Addr.hash_int}. *)

val path_count : t -> int
(** Inspection: total paths across all prefixes. *)

val stale_count : t -> key:string -> int
(** Inspection: the source's paths still marked stale by graceful
    restart. *)

val better : path -> path -> bool
(** Inspection: [better a b], the decision process preference on its
    own, which tests check the table's choice against. *)

(** Route policies (import/export filtering and rewriting).

    A policy is an ordered list of rules evaluated first-match. Each rule
    has match conditions (all must hold) and either rejects the route or
    applies attribute rewrites and accepts it. The default when no rule
    matches is configurable per policy (accept for the empty policy).

    This covers what the paper's deployment needs from routing policy:
    per-client prefix filtering, LOCAL_PREF/MED steering, community
    tagging, and AS-path prepending. *)

type cond =
  | Match_prefix_exact of Netsim.Addr.prefix
  | Match_prefix_within of Netsim.Addr.prefix
      (** True when the route's prefix is covered by the given one. *)
  | Match_as_in_path of int
  | Match_community of Attrs.community
  | Match_next_hop of Netsim.Addr.t

type action =
  | Set_local_pref of int
  | Set_med of int option
  | Add_community of Attrs.community
  | Strip_communities
  | Prepend_as of int * int  (** [(asn, times)]. *)

type rule = {
  conds : cond list;  (** Conjunction; [[]] matches everything. *)
  decision : [ `Accept of action list | `Reject ];
}

type t

val empty : t
(** Accepts everything unchanged. *)

val make : ?default:[ `Accept | `Reject ] -> rule list -> t
(** [default] applies when no rule matches (default [`Accept]). *)

val accept_rule : ?conds:cond list -> action list -> rule
val reject_rule : cond list -> rule

val apply : t -> Netsim.Addr.prefix -> Attrs.t -> Attrs.t option
(** [apply t prefix attrs] is [None] when rejected, or the rewritten
    attributes. A route accepted without actions (the empty policy
    included) gets [attrs] itself back, physically, so update packing
    finds its group by [==]. *)

val rule_count : t -> int

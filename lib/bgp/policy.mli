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

val apply : t -> Netsim.Addr.prefix -> Attrs.t -> Attrs.t option
(** [apply t prefix attrs] is [None] when rejected, or the rewritten
    attributes. A route accepted without actions (the empty policy
    included) gets [attrs] itself back, physically, so update packing
    finds its group by [==]. *)

val accepts_all : t -> bool
(** [true] for a policy with no rules and an [`Accept] default, such as
    {!empty}: {!apply} returns every route's [attrs] unchanged, so a
    caller may skip it. *)

(** {1 Test-only}

    Every speaker in the experiments runs {!empty}; only tests build
    rules. The builder stays because the paper's deployment filters and
    steers per client, and the one-pass export property test drives a
    rewriting out-policy through that path. *)

val make : ?default:[ `Accept | `Reject ] -> rule list -> t
(** Kept: see the heading. [default] applies when no rule matches
    (default [`Accept]). *)

val accept_rule : ?conds:cond list -> action list -> rule
(** Kept: with {!make}, a rule that applies [actions] and accepts. *)

val reject_rule : cond list -> rule
(** Kept: with {!make}, a rule that rejects when every condition holds. *)

type cond =
  | Match_prefix_exact of Netsim.Addr.prefix
  | Match_prefix_within of Netsim.Addr.prefix
  | Match_as_in_path of int
  | Match_community of Attrs.community
  | Match_next_hop of Netsim.Addr.t

type action =
  | Set_local_pref of int
  | Set_med of int option
  | Add_community of Attrs.community
  | Strip_communities
  | Prepend_as of int * int

type rule = {
  conds : cond list;
  decision : [ `Accept of action list | `Reject ];
}

type t = { rules : rule list; default : [ `Accept | `Reject ] }

let empty = { rules = []; default = `Accept }
let make ?(default = `Accept) rules = { rules; default }
let accept_rule ?(conds = []) actions = { conds; decision = `Accept actions }
let reject_rule conds = { conds; decision = `Reject }
let rule_count t = List.length t.rules

let cond_holds prefix (attrs : Attrs.t) = function
  | Match_prefix_exact p -> Netsim.Addr.equal_prefix p prefix
  | Match_prefix_within p -> Netsim.Addr.subsumes p prefix
  | Match_as_in_path asn -> Attrs.path_contains attrs asn
  | Match_community c -> Attrs.has_community attrs c
  | Match_next_hop nh -> Netsim.Addr.equal attrs.Attrs.next_hop nh

let apply_action attrs = function
  | Set_local_pref lp -> Attrs.with_local_pref attrs (Some lp)
  | Set_med med -> Attrs.with_med attrs med
  | Add_community c -> Attrs.add_community attrs c
  | Strip_communities -> { attrs with Attrs.communities = [] }
  | Prepend_as (asn, times) ->
      let rec go attrs n = if n = 0 then attrs else go (Attrs.prepend attrs asn) (n - 1) in
      go attrs (max 0 times)

(* Top-level, so [apply] builds no closure: it runs once per prefix on
   export and on receive, and the empty policy allocates only the [Some]
   around the caller's own attrs. *)
let rec conds_hold prefix attrs = function
  | [] -> true
  | c :: rest -> cond_holds prefix attrs c && conds_hold prefix attrs rest

let rec eval default prefix attrs = function
  | [] -> ( match default with `Accept -> Some attrs | `Reject -> None)
  | rule :: rest ->
      if conds_hold prefix attrs rule.conds then
        match rule.decision with
        | `Reject -> None
        | `Accept actions -> Some (List.fold_left apply_action attrs actions)
      else eval default prefix attrs rest

let apply t prefix attrs = eval t.default prefix attrs t.rules

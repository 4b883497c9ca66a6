open Sim

type profile = {
  profile_name : string;
  rx_per_update : Time.span;
  rx_per_msg : Time.span;
  tx_per_update : Time.span;
  tx_per_msg : Time.span;
  tx_clone_per_msg : Time.span;
  tx_coalesce : Time.span;
  update_packing : bool;
}

let default_profile =
  {
    profile_name = "default";
    rx_per_update = Time.us 4;
    rx_per_msg = Time.us 20;
    tx_per_update = Time.us 3;
    tx_per_msg = Time.us 15;
    tx_clone_per_msg = Time.us 25;
    tx_coalesce = Time.ms 35;
    update_packing = true;
  }

(* The well-known BGP port (RFC 4271 §8.2.1): the speaker listens on it
   and opens active sessions to it. *)
let bgp_port = 179

type t = {
  stk : Tcp.stack;
  eng : Engine.t;
  asn : int;
  rid : Netsim.Addr.t;
  profile : profile;
  hooks : hooks;
  vrf_tbl : (string, Rib.t) Hashtbl.t;
  mutable vrf_order : string list;
  mutable peer_list : peer list;
  mutable busy_until : Time.t;
  mutable learned : int;
  mutable sent_updates : int;
  mutable sent_msgs : int;
  mutable last_tx : Time.t;
  mutable last_rx_apply : Time.t;
  changes : Rib.Changes.t;
      (** The batch being applied: every Loc-RIB change goes through it,
          from [Rib] to the hook and the outgoing UPDATEs. *)
}

and peer = {
  sp : t;
  pcfg : peer_config;
  skey : string;
  mutable source : Rib.source;
  mutable session : Session.t option;
  mutable up_cb : unit -> unit;
  mutable down_cb : Session.down_reason -> unit;
  mutable gr_sweep : Engine.handle option;
  mutable admin_down : bool;
}

and peer_config = {
  vrf : string;
  remote_addr : Netsim.Addr.t;
  local_addr : Netsim.Addr.t option;
  remote_asn : int option;
  passive : bool;
  policy_in : Policy.t;
  policy_out : Policy.t;
}

and hooks = {
  on_rx_replicate : peer -> Msg.t -> raw:string -> inferred_ack:int -> unit;
  on_tx_replicate : peer -> Msg.t -> string -> (unit -> unit) -> unit;
  on_rib_change : vrf:string -> Rib.change -> unit;
  on_rx_applied : peer -> Msg.t -> unit;
}

(* Named, so a speaker can tell that its checkpoint hook does nothing
   and skip building the change values for it. *)
let no_rib_change ~vrf:_ _ = ()

let no_hooks =
  {
    on_rx_replicate = (fun _ _ ~raw:_ ~inferred_ack:_ -> ());
    on_tx_replicate = (fun _ _ _ k -> k ());
    on_rib_change = no_rib_change;
    on_rx_applied = (fun _ _ -> ());
  }

let stack t = t.stk
let peers t = List.rev t.peer_list
let peer_cfg p = p.pcfg
let peer_session p = p.session

let peer_conn p =
  match p.session with Some s -> Session.conn s | None -> None

let peer_source_key p = p.skey
let on_peer_up p f = p.up_cb <- f
let on_peer_down p f = p.down_cb <- f

let peer_state p =
  match p.session with Some s -> Session.state s | None -> Session.Idle

let all_established t =
  List.for_all (fun p -> peer_state p = Session.Established) t.peer_list

let updates_learned t = t.learned
let updates_sent t = t.sent_updates
let messages_sent t = t.sent_msgs

(* The instant the latest outgoing message truly reached TCP: for hooked
   (TENSOR) speakers the replication release happens after dispatch, so
   fold over the sessions' own write stamps. *)
let last_tx_handoff t =
  List.fold_left
    (fun acc p ->
      match p.session with
      | Some s -> max acc (Session.last_write s)
      | None -> acc)
    t.last_tx (peers t)
let last_rx_applied t = t.last_rx_apply

let add_vrf t name =
  if not (Hashtbl.mem t.vrf_tbl name) then begin
    Hashtbl.replace t.vrf_tbl name (Rib.create ());
    t.vrf_order <- t.vrf_order @ [ name ]
  end

let rib t ~vrf =
  match Hashtbl.find_opt t.vrf_tbl vrf with
  | Some r -> r
  | None -> raise Not_found

let default_peer_config ?remote_asn ?(passive = false) ?local_addr ~vrf
    ~remote_addr () =
  {
    vrf;
    remote_addr;
    local_addr;
    remote_asn;
    passive;
    policy_in = Policy.empty;
    policy_out = Policy.empty;
  }

(* Session parameters every peer shares: the advertised graceful-restart
   time (s) and the backoff before re-opening a dropped active session. *)
let graceful_restart = Some 120
let reconnect_backoff = Time.sec 5

(* --- Main-thread cost model -------------------------------------------- *)

let run_on_main t cost f =
  let now = Engine.now t.eng in
  let start = if t.busy_until > now then t.busy_until else now in
  let finish = Time.add start cost in
  t.busy_until <- finish;
  ignore (Engine.schedule_at t.eng ~label:"bgp.main" finish f)

(* --- Export machinery ---------------------------------------------------- *)

let local_source t vrf =
  {
    Rib.key = "local/" ^ vrf;
    peer_asn = t.asn;
    peer_addr = t.rid;
    router_id = t.rid;
    ebgp = false;
  }

let is_local_source (s : Rib.source) =
  String.length s.key >= 6 && String.sub s.key 0 6 = "local/"

let peer_is_ebgp p =
  match p.session with
  | Some s -> (
      match Session.negotiated s with
      | Some n -> n.Session.peer_open.Msg.asn <> p.sp.asn
      | None -> (
          match p.pcfg.remote_asn with
          | Some a -> a <> p.sp.asn
          | None -> true))
  | None -> (
      match p.pcfg.remote_asn with Some a -> a <> p.sp.asn | None -> true)

let session_local_addr p =
  match peer_conn p with
  | Some c -> (Tcp.quad c).Tcp.Quad.local_addr
  | None -> p.sp.rid

(* Transform attributes for export to [p]; None = do not export. *)
let export_attrs p (path : Rib.path) =
  let t = p.sp in
  let ebgp = peer_is_ebgp p in
  if Attrs.has_community path.attrs Attrs.no_advertise then None
  else if ebgp && Attrs.has_community path.attrs Attrs.no_export then None
  else if
    (not ebgp) && (not path.source.ebgp) && not (is_local_source path.source)
  then None (* iBGP-learned routes are not re-advertised to iBGP peers *)
  else
    let attrs = path.attrs in
    let attrs =
      if ebgp then
        Attrs.with_local_pref
          (Attrs.with_next_hop (Attrs.prepend attrs t.asn) (session_local_addr p))
          None
      else
        Attrs.with_local_pref attrs
          (Some
             (match attrs.Attrs.local_pref with Some lp -> lp | None -> 100))
    in
    Some attrs

(* NLRI with equal attributes always share messages (standard in every
   implementation); "update packing" only changes whether those messages
   are cheaply reused across peers (the cost model). A run is a stretch
   of adverts, consecutive in the batch, whose attributes are equal; its
   prefixes are in batch order. *)
type run = { r_attrs : Attrs.t; mutable r_pfxs : Netsim.Addr.prefix list }

(* The runs of one target's export, and the memo of [export_attrs]: the
   changes of one origination or received UPDATE share their path's
   source and attrs physically, so a batch pays the rewrite once per
   attribute set. Both are keys because the iBGP and local-source rules
   read the source. *)
type packer = {
  mutable runs : run list;  (** In batch order once the walk is done. *)
  mutable cur : run;
  mutable m_source : Rib.source;
  mutable m_attrs : Attrs.t;
  mutable m_out : Attrs.t option;
}

(* Sentinels: no run open yet, and no path seen by the memo. *)
let no_run = { r_attrs = Attrs.make ~next_hop:(Netsim.Addr.of_int 0) (); r_pfxs = [] }

let no_source =
  let nowhere = Netsim.Addr.of_int 0 in
  { Rib.key = ""; peer_asn = 0; peer_addr = nowhere; router_id = nowhere; ebgp = false }

let advert pk pfx attrs =
  let r = pk.cur in
  if r != no_run && (r.r_attrs == attrs || Attrs.equal r.r_attrs attrs) then
    r.r_pfxs <- pfx :: r.r_pfxs
  else begin
    let r = { r_attrs = attrs; r_pfxs = [ pfx ] } in
    pk.cur <- r;
    pk.runs <- r :: pk.runs
  end

(* Maximum NLRI per message so the frame stays under 4096 bytes. *)
let nlri_capacity attrs =
  let probe =
    Msg.encode (Msg.Update { withdrawn = []; attrs = Some attrs; nlri = [] })
  in
  max 1 ((Msg.max_size - String.length probe - 8) / 5)

let withdraw_capacity = (Msg.max_size - 32) / 5

let rec chunks n = function
  | [] -> []
  | l when List.compare_length_with l n <= 0 -> [ l ]
  | l ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
      in
      let head, rest = take n [] l in
      head :: chunks n rest

let advert_update attrs nlri = Msg.Update { withdrawn = []; attrs = Some attrs; nlri }

(* The runs as groups in [Attrs.compare] order, each equal run merged
   into one in batch order and standing for them with its first run's
   attrs, each group chunked to fit a message, ahead of [tail]. That is
   what a stable sort of the adverts by attrs followed by run-grouping
   gives, but only the runs are sorted. *)
let advert_updates runs tail =
  let sorted = List.stable_sort (fun a b -> Attrs.compare a.r_attrs b.r_attrs) runs in
  (* [later] holds the group's runs after its first, latest first: each
     is copied once when they are joined, the last not at all. *)
  let rec merge = function
    | [] -> tail
    | r :: rest -> group r [] rest
  and group first later = function
    | r :: rest when Attrs.equal first.r_attrs r.r_attrs -> group first (r.r_pfxs :: later) rest
    | rest ->
        let pfxs =
          match later with
          | [] -> first.r_pfxs
          | last :: rest -> first.r_pfxs @ List.fold_left (fun acc l -> l @ acc) last rest
        in
        List.fold_right
          (fun nlri msgs -> advert_update first.r_attrs nlri :: msgs)
          (chunks (nlri_capacity first.r_attrs) pfxs)
          (merge rest)
  in
  merge sorted

(* The UPDATEs that carry [buf]'s adverts to one target, ahead of
   [tail]: [export] rewrites a path's attributes for the target (None:
   not exported), [policy] then runs per prefix (its rules can match on
   the prefix; the empty policy is not consulted). The walk runs back to
   front, so each run's prefixes come out in batch order with no
   reversal; [~backwards:false] walks front to back, for lists in the
   reverse of the batch's order. *)
let advert_messages ~export ~policy buf ~backwards tail =
  let accept_all = Policy.accepts_all policy in
  let pk =
    { runs = []; cur = no_run; m_source = no_source; m_attrs = no_run.r_attrs; m_out = None }
  in
  let n = Rib.Changes.length buf in
  for k = 0 to n - 1 do
    let i = if backwards then n - 1 - k else k in
    if not (Rib.Changes.withdrawn buf i) then begin
      let path = Rib.Changes.path buf i in
      if not (path.Rib.source == pk.m_source && path.Rib.attrs == pk.m_attrs) then begin
        pk.m_source <- path.Rib.source;
        pk.m_attrs <- path.Rib.attrs;
        pk.m_out <- export path
      end;
      match pk.m_out with
      | None -> ()
      | Some attrs -> (
          let pfx = Rib.Changes.prefix buf i in
          if accept_all then advert pk pfx attrs
          else
            match Policy.apply policy pfx attrs with
            | Some attrs -> advert pk pfx attrs
            | None -> ())
    end
  done;
  advert_updates pk.runs tail

(* The UPDATEs withdrawing [buf]'s withdrawn prefixes, in batch order and
   chunked to fit a message, ahead of [tail]. Walking back to front with
   the count known, each chunk is closed where it starts: no chunk list
   is copied. They are the same for every target. *)
let withdraw_messages buf tail =
  if Rib.Changes.withdrawals buf = 0 then tail
  else begin
    let msgs = ref tail and chunk = ref [] in
    let w = ref (Rib.Changes.withdrawals buf) in
    for i = Rib.Changes.length buf - 1 downto 0 do
      if Rib.Changes.withdrawn buf i then begin
        decr w;
        chunk := Rib.Changes.prefix buf i :: !chunk;
        if !w mod withdraw_capacity = 0 then begin
          msgs := Msg.Update { withdrawn = !chunk; attrs = None; nlri = [] } :: !msgs;
          chunk := []
        end
      end
    done;
    !msgs
  end

let established_session p =
  match p.session with
  | Some s when Session.state s = Session.Established -> Some s
  | _ -> None

(* Send messages to one peer, paying the generation or clone cost. *)
let dispatch_messages t p msgs ~first_copy =
  match established_session p with
  | None -> ()
  | Some session ->
      let nmsgs = List.length msgs in
      if nmsgs > 0 then begin
        let nupd =
          List.fold_left (fun acc m -> acc + Msg.update_count m) 0 msgs
        in
        (* With update packing, peers after the first pay only the cheap
           per-message cloning cost; without it (GoBGP), every peer pays
           full generation. *)
        let cost =
          if t.profile.update_packing && not first_copy then
            nmsgs * t.profile.tx_clone_per_msg
          else (nmsgs * t.profile.tx_per_msg) + (nupd * t.profile.tx_per_update)
        in
        let dispatch () = run_on_main t cost (fun () ->
            if established_session p <> None then begin
              List.iter (fun m -> Session.send session m) msgs;
              t.sent_msgs <- t.sent_msgs + nmsgs;
              t.sent_updates <- t.sent_updates + nupd;
              t.last_tx <- Engine.now t.eng
            end)
        in
        if t.profile.tx_coalesce > 0 then
          ignore
            (Engine.schedule_after t.eng ~label:"bgp.tx" t.profile.tx_coalesce
               dispatch)
        else dispatch ()
      end

(* Export the buffered batch to every established peer of the VRF except
   [exclude]: the withdrawals, then each target's adverts. *)
let export_changes t vrf ~exclude =
  let buf = t.changes in
  if Rib.Changes.length buf > 0 then begin
    let targets =
      List.filter
        (fun p ->
          p.pcfg.vrf = vrf
          && (not (String.equal p.skey exclude))
          && established_session p <> None)
        (peers t)
    in
    let withdrawals = withdraw_messages buf [] in
    List.iteri
      (fun i p ->
        let adverts =
          advert_messages ~export:(export_attrs p) ~policy:p.pcfg.policy_out buf
            ~backwards:true []
        in
        dispatch_messages t p (withdrawals @ adverts) ~first_copy:(i = 0))
      targets
  end

(* The buffer, emptied for the next batch. *)
let batch t =
  Rib.Changes.clear t.changes;
  t.changes

(* Full-table sync to a newly established peer, ending with End-of-RIB.
   Its adverts go out in descending prefix order within each group, as
   they always have: the walk runs front to back over the ascending
   table. *)
let send_full_table t p =
  let table = rib t ~vrf:p.pcfg.vrf in
  let buf = batch t in
  Rib.fold_best table ~init:() ~f:(fun () pfx path ->
      if not (String.equal path.Rib.source.Rib.key p.skey) then Rib.Changes.add buf pfx path);
  let msgs =
    advert_messages ~export:(export_attrs p) ~policy:p.pcfg.policy_out buf
      ~backwards:false [ Msg.end_of_rib ]
  in
  dispatch_messages t p msgs ~first_copy:true

let pack_changes buf =
  withdraw_messages buf
    (advert_messages ~export:(fun path -> Some path.Rib.attrs) ~policy:Policy.empty buf
       ~backwards:true [])

(* --- Receive path -------------------------------------------------------- *)

(* Hands the buffered batch on: first every change to the checkpoint
   hook, in order, then the export. Every hook call comes before any
   export is scheduled, so engine sequence numbers do not depend on how
   the batch is packed. *)
let apply_rib_changes t vrf ~exclude =
  let buf = t.changes in
  if t.hooks.on_rib_change != no_rib_change then
    for i = 0 to Rib.Changes.length buf - 1 do
      t.hooks.on_rib_change ~vrf (Rib.Changes.change buf i)
    done;
  export_changes t vrf ~exclude

let cancel_gr_sweep p =
  match p.gr_sweep with
  | Some h ->
      Engine.cancel h;
      p.gr_sweep <- None
  | None -> ()

let apply_update t p (u : Msg.update) =
  let vrf = p.pcfg.vrf in
  let table = rib t ~vrf in
  let count = List.length u.nlri + List.length u.withdrawn in
  let buf = batch t in
  List.iter (fun pfx -> Rib.withdraw table p.source pfx buf) u.withdrawn;
  if u.withdrawn <> [] && Telemetry.Gate.on () then
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Routes_withdrawn
         {
           node = Netsim.Node.name (Tcp.stack_node t.stk);
           peer = Netsim.Addr.to_string p.pcfg.remote_addr;
           count = List.length u.withdrawn;
         });
  (match u.attrs with
  | Some attrs when u.nlri <> [] ->
      if Attrs.path_contains attrs t.asn then
        (* AS-path loop: reject the whole NLRI set. *)
        ()
      else
        (* One path record for the UPDATE: a prefix gets its own only
           when the import policy rewrites its attributes. The table
           grows for the whole UPDATE at once (prefixes the policy
           rejects count too). A policy that accepts everything
           unchanged is not consulted per prefix. *)
        let path = { Rib.source = p.source; attrs; stale = false } in
        let policy = p.pcfg.policy_in in
        Rib.reserve table (List.length u.nlri);
        if Policy.accepts_all policy then
          List.iter (fun pfx -> Rib.install table path pfx buf) u.nlri
        else
          List.iter
            (fun pfx ->
              match Policy.apply policy pfx attrs with
              | Some a when a == attrs -> Rib.install table path pfx buf
              | Some attrs -> Rib.install table { path with attrs } pfx buf
              | None -> ())
            u.nlri
  | _ -> ());
  t.learned <- t.learned + count;
  t.last_rx_apply <- Engine.now t.eng;
  apply_rib_changes t vrf ~exclude:p.skey;
  (* End-of-RIB completes a graceful restart: drop still-stale paths. *)
  if Msg.is_end_of_rib (Msg.Update u) then begin
    cancel_gr_sweep p;
    Rib.sweep_stale table ~key:p.skey (batch t);
    apply_rib_changes t vrf ~exclude:p.skey
  end;
  t.hooks.on_rx_applied p (Msg.Update u)

let handle_route_refresh t p =
  run_on_main t (Time.us 50) (fun () -> send_full_table t p)

(* Post-takeover Adj-RIB-Out audit. Delayed sending guarantees the peer
   never saw a message that was not durable — but the converse loss is
   possible: an UPDATE the failed primary generated and never got stored
   was never on the wire, and the resumed session will not regenerate it
   on its own. Re-sending the full table closes that gap; prefixes the
   peer already holds arrive as implicit updates with identical
   attributes, which change nothing and are invisible above TCP. *)
let resync_adj_out t p =
  run_on_main t (Time.us 50) (fun () -> send_full_table t p)

(* --- Session lifecycle ---------------------------------------------------- *)

let rec session_event t p session ev =
  match ev with
  | Session.Session_established o ->
      p.source <-
        {
          p.source with
          Rib.peer_asn = o.Msg.asn;
          router_id = o.Msg.router_id;
          ebgp = o.Msg.asn <> t.asn;
        };
      send_full_table t p;
      p.up_cb ()
  | Session.Message_received (msg, size) -> (
      ignore size;
      ignore session;
      match msg with
      | Msg.Update u ->
          let count = List.length u.nlri + List.length u.withdrawn in
          let cost =
            t.profile.rx_per_msg + (count * t.profile.rx_per_update)
          in
          run_on_main t cost (fun () -> apply_update t p u)
      | Msg.Route_refresh _ -> handle_route_refresh t p
      | Msg.Open _ | Msg.Notification _ | Msg.Keepalive -> ())
  | Session.Session_went_down reason ->
      handle_session_down t p reason

and handle_session_down t p reason =
  let vrf = p.pcfg.vrf in
  let table = rib t ~vrf in
  let gr_eligible =
    (match reason with
    | Session.Transport_failed _ -> true
    | Session.Notification_received _ | Session.Notification_sent _
    | Session.Stopped ->
        false)
    &&
    match p.session with
    | Some s -> (
        match Session.negotiated s with
        | Some n -> n.Session.peer_supports_gr
        | None -> false)
    | None -> false
  in
  let restart_time =
    match p.session with
    | Some s -> (
        match Session.negotiated s with
        | Some n -> max 1 n.Session.peer_gr_restart_time
        | None -> 120)
    | None -> 120
  in
  p.session <- None;
  if gr_eligible then begin
    ignore (Rib.mark_source_stale table ~key:p.skey);
    cancel_gr_sweep p;
    p.gr_sweep <-
      Some
        (Engine.schedule_after t.eng ~label:"bgp.gr_sweep"
           (Time.sec restart_time) (fun () ->
             p.gr_sweep <- None;
             Rib.sweep_stale table ~key:p.skey (batch t);
             apply_rib_changes t vrf ~exclude:p.skey))
  end
  else begin
    Rib.remove_source table ~key:p.skey (batch t);
    apply_rib_changes t vrf ~exclude:p.skey
  end;
  p.down_cb reason;
  (* Auto-reconnect for active peers. *)
  if (not p.pcfg.passive) && not p.admin_down then
    ignore
      (Engine.schedule_after t.eng ~label:"bgp.reconnect" reconnect_backoff
         (fun () -> if p.session = None && not p.admin_down then start_peer t p))

and session_config t (pc : peer_config) =
  {
    Session.local_asn = t.asn;
    router_id = t.rid;
    local_addr = pc.local_addr;
    peer_addr = pc.remote_addr;
    peer_asn = pc.remote_asn;
    hold_time = Session.default_hold_time;
    port = bgp_port;
    passive = pc.passive;
    graceful_restart;
    as4 = true;
  }

and attach_session t p session =
  p.session <- Some session;
  Session.set_pre_send session (fun msg raw k ->
      t.hooks.on_tx_replicate p msg raw k);
  (* The receive-replication tap covers every message type (keepalives
     included), with the inferred ACK current at parse time. *)
  Session.set_on_message session (fun msg ~raw ->
      match Session.conn session with
      | Some c ->
          let inferred_ack = Tcp.irs c + 1 + Session.parsed_bytes session in
          t.hooks.on_rx_replicate p msg ~raw ~inferred_ack
      | None -> ())

and start_peer t p =
  p.admin_down <- false;
  if (not p.pcfg.passive) && p.session = None then begin
    let session =
      Session.start_active t.stk (session_config t p.pcfg)
        ~cb:(fun s ev -> session_event t p s ev)
    in
    attach_session t p session
  end

let stop_peer _t p =
  p.admin_down <- true;
  match p.session with
  | Some s ->
      Session.stop s (* triggers Session_went_down -> cleanup *)
  | None -> ()

let add_peer t pcfg =
  add_vrf t pcfg.vrf;
  let skey = pcfg.vrf ^ "/" ^ Netsim.Addr.to_string pcfg.remote_addr in
  let p =
    {
      sp = t;
      pcfg;
      skey;
      source =
        {
          Rib.key = skey;
          peer_asn = (match pcfg.remote_asn with Some a -> a | None -> 0);
          peer_addr = pcfg.remote_addr;
          router_id = pcfg.remote_addr;
          ebgp = (match pcfg.remote_asn with Some a -> a <> t.asn | None -> true);
        };
      session = None;
      up_cb = (fun () -> ());
      down_cb = (fun _ -> ());
      gr_sweep = None;
      admin_down = false;
    }
  in
  t.peer_list <- p :: t.peer_list;
  p

let start t = List.iter (fun p -> start_peer t p) (peers t)

let accept_incoming t conn =
  let quad = Tcp.quad conn in
  let remote = quad.Tcp.Quad.remote_addr in
  let matches p =
    Netsim.Addr.equal p.pcfg.remote_addr remote
    && (match p.pcfg.local_addr with
       | Some a -> Netsim.Addr.equal a quad.Tcp.Quad.local_addr
       | None -> true)
    && not p.admin_down
  in
  let adopt p =
    let session =
      Session.accept_passive t.stk (session_config t p.pcfg) ~conn
        ~cb:(fun s ev -> session_event t p s ev)
    in
    attach_session t p session
  in
  match List.find_opt (fun p -> matches p && p.session = None) (peers t) with
  | Some p -> adopt p
  | None -> (
      (* Connection collision (RFC 4271 §6.8): both sides opened
         simultaneously. The connection initiated by the speaker with the
         higher BGP identifier survives; since the peer's OPEN has not
         arrived yet, compare identifiers as addresses (router ids equal
         interface addresses throughout this codebase). *)
      match
        List.find_opt
          (fun p ->
            matches p
            &&
            match p.session with
            | Some s -> (
                match Session.state s with
                | Session.Connecting | Session.Open_sent -> true
                | Session.Idle | Session.Open_confirm | Session.Established
                | Session.Down ->
                    false)
            | None -> false)
          (peers t)
      with
      | Some p when Netsim.Addr.compare remote t.rid > 0 ->
          (* The peer outranks us: abandon our attempt, adopt theirs. *)
          (match p.session with Some s -> Session.stop s | None -> ());
          adopt p
      | Some _ ->
          (* We outrank the peer: drop their connection, ours proceeds. *)
          Tcp.abort conn
      | None -> Tcp.abort conn)

let create ?(profile = default_profile) ?(hooks = no_hooks) ~stack ~local_asn
    ~router_id () =
  let t =
    {
      stk = stack;
      eng = Tcp.stack_engine stack;
      asn = local_asn;
      rid = router_id;
      profile;
      hooks;
      vrf_tbl = Hashtbl.create 8;
      vrf_order = [];
      peer_list = [];
      busy_until = Time.zero;
      learned = 0;
      sent_updates = 0;
      sent_msgs = 0;
      last_tx = Time.zero;
      last_rx_apply = Time.zero;
      changes = Rib.Changes.create ();
    }
  in
  Tcp.listen stack ~port:bgp_port (fun conn -> accept_incoming t conn);
  t

(* --- Local routes --------------------------------------------------------- *)

let originate t ~vrf ?attrs prefixes =
  add_vrf t vrf;
  let table = rib t ~vrf in
  let attrs =
    match attrs with Some a -> a | None -> Attrs.make ~next_hop:t.rid ()
  in
  let source = local_source t vrf in
  let path = { Rib.source; attrs; stale = false } in
  Rib.reserve table (List.length prefixes);
  let buf = batch t in
  List.iter (fun pfx -> Rib.install table path pfx buf) prefixes;
  apply_rib_changes t vrf ~exclude:source.Rib.key

let withdraw_origin t ~vrf prefixes =
  let table = rib t ~vrf in
  let source = local_source t vrf in
  let buf = batch t in
  List.iter (fun pfx -> Rib.withdraw table source pfx buf) prefixes;
  apply_rib_changes t vrf ~exclude:source.Rib.key

let restore_route t ~vrf source prefix attrs =
  add_vrf t vrf;
  let table = rib t ~vrf in
  (* Quiet install: no export, no checkpoint echo. *)
  ignore (Rib.update table source prefix (Some attrs))

let replay_update t p (u : Msg.update) = apply_update t p u

let resume_peer t pcfg ~repair ~negotiated ~framer_seed =
  let p = add_peer t pcfg in
  let o = negotiated.Session.peer_open in
  p.source <-
    {
      p.source with
      Rib.peer_asn = o.Msg.asn;
      router_id = o.Msg.router_id;
      ebgp = o.Msg.asn <> t.asn;
    };
  let session =
    Session.resume t.stk (session_config t pcfg) ~repair ~negotiated
      ~framer_seed
      ~cb:(fun s ev -> session_event t p s ev)
  in
  attach_session t p session;
  p

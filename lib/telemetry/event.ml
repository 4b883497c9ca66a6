type category = Tcp | Bgp | Bfd | Netfilter | Replicator | Orch | Store | Fleet

let category_name = function
  | Tcp -> "tcp"
  | Bgp -> "bgp"
  | Bfd -> "bfd"
  | Netfilter -> "netfilter"
  | Replicator -> "replicator"
  | Orch -> "orch"
  | Store -> "store"
  | Fleet -> "fleet"

type t =
  | Seg_retransmit of { conn : string; seq : int; len : int }
  | Rto_fired of { conn : string; backoff : int; rto_s : float }
  | Repair_export of {
      conn : string;
      unacked : int;
      snd_una : int;
      snd_nxt : int;
      rcv_nxt : int;
    }
  | Repair_import of {
      conn : string;
      unacked : int;
      snd_una : int;
      snd_nxt : int;
      rcv_nxt : int;
    }
  | Session_frozen of { node : string; conns : int }
  | Session_established of { node : string; peer : string }
  | Session_down of { node : string; peer : string; reason : string }
  | Session_resumed of { node : string; peer : string }
  | Rib_snapshot of { node : string; vrf : string; size : int; digest : string }
  | Routes_withdrawn of { node : string; peer : string; count : int }
  | Bfd_up of { node : string; peer : string; vrf : string }
  | Bfd_down of {
      node : string;
      peer : string;
      vrf : string;
      silent_s : float;
      interval_s : float;
      mult : int;
    }
  | Queue_dropped of { qnum : int; depth : int }
  | Ack_held of { conn : string; ack : int; depth : int }
  | Ack_released of { conn : string; ack : int; held_s : float }
  | Ack_dropped of { conn : string; ack : int }
  | Ack_shed of { conn : string; ack : int; held_s : float }
  | Degraded_enter of { conn : string; held : int; oldest_held_s : float }
  | Degraded_exit of { conn : string; degraded_s : float; epoch : int }
  | Wm_durable of { conn : string; ack : int }
  | Catchup_start of { service : string; vrf : string }
  | Catchup_done of { service : string; vrf : string; msgs : int; bytes : int }
  | Replica_promoted of { service : string; container : string }
  | Container_state of { id : string; host : string; state : string }
  | Failure_detected of { id : string; kind : string }
  | Migration_initiated of { id : string }
  | Migration_done of { id : string; host : string; container : string }
  | Host_suspect of { host : string }
  | Host_failed of { host : string }
  | Failure_injected of { service : string; kind : string }
  | Planned_migration of { service : string }
  | Tcp_synced of { service : string; vrf : string }
  | Store_unreachable of { node : string }
  | Store_recovered of { node : string; outage_s : float }
  | Migration_deferred of { id : string; reason : string }
  | Store_crashed of { node : string }
  | Store_restarted of { node : string }
  | Store_promoted of { node : string }
  | Store_failover of { client : string; attempts : int }
  | Rpc_unknown_service of { node : string; service : string; count : int }
  | Fleet_placed of {
      service : string;
      instance : string;
      region : string;
      host : string;
      container : string;
    }
  | Upgrade_started of {
      instance : string;
      wave : int;
      inflight : int;
      bound : int;
    }
  | Upgrade_done of { instance : string; wave : int; container : string }
  | Fleet_degraded of { instance : string; region : string }
  | Fleet_rearmed of { instance : string; region : string; degraded_s : float }
  | Generic of { cat : category; name : string; detail : string }

let category = function
  | Seg_retransmit _ | Rto_fired _ | Repair_export _ | Repair_import _
  | Session_frozen _ ->
      Tcp
  | Session_established _ | Session_down _ | Session_resumed _
  | Rib_snapshot _ | Routes_withdrawn _ ->
      Bgp
  | Bfd_up _ | Bfd_down _ -> Bfd
  | Queue_dropped _ -> Netfilter
  | Ack_held _ | Ack_released _ | Ack_dropped _ | Ack_shed _
  | Degraded_enter _ | Degraded_exit _ | Wm_durable _
  | Catchup_start _ | Catchup_done _ | Replica_promoted _ ->
      Replicator
  | Container_state _ | Failure_detected _ | Migration_initiated _
  | Migration_done _ | Host_suspect _ | Host_failed _ | Failure_injected _
  | Planned_migration _ | Tcp_synced _ | Store_unreachable _
  | Store_recovered _ | Migration_deferred _ ->
      Orch
  | Store_crashed _ | Store_restarted _ | Store_promoted _ | Store_failover _
  | Rpc_unknown_service _ ->
      Store
  | Fleet_placed _ | Upgrade_started _ | Upgrade_done _ | Fleet_degraded _
  | Fleet_rearmed _ ->
      Fleet
  | Generic { cat; _ } -> cat

let name = function
  | Seg_retransmit _ -> "seg_retransmit"
  | Rto_fired _ -> "rto_fired"
  | Repair_export _ -> "repair_export"
  | Repair_import _ -> "repair_import"
  | Session_frozen _ -> "session_frozen"
  | Session_established _ -> "session_established"
  | Session_down _ -> "session_down"
  | Session_resumed _ -> "session_resumed"
  | Rib_snapshot _ -> "rib_snapshot"
  | Routes_withdrawn _ -> "routes_withdrawn"
  | Bfd_up _ -> "bfd_up"
  | Bfd_down _ -> "bfd_down"
  | Queue_dropped _ -> "queue_dropped"
  | Ack_held _ -> "ack_held"
  | Ack_released _ -> "ack_released"
  | Ack_dropped _ -> "ack_dropped"
  | Ack_shed _ -> "ack_shed"
  | Degraded_enter _ -> "degraded_enter"
  | Degraded_exit _ -> "degraded_exit"
  | Wm_durable _ -> "wm_durable"
  | Catchup_start _ -> "catchup_start"
  | Catchup_done _ -> "catchup_done"
  | Replica_promoted _ -> "replica_promoted"
  | Container_state _ -> "container_state"
  | Failure_detected _ -> "failure_detected"
  | Migration_initiated _ -> "migration_initiated"
  | Migration_done _ -> "migration_done"
  | Host_suspect _ -> "host_suspect"
  | Host_failed _ -> "host_failed"
  | Failure_injected _ -> "failure_injected"
  | Planned_migration _ -> "planned_migration"
  | Tcp_synced _ -> "tcp_synced"
  | Store_unreachable _ -> "store_unreachable"
  | Store_recovered _ -> "store_recovered"
  | Migration_deferred _ -> "migration_deferred"
  | Store_crashed _ -> "store_crashed"
  | Store_restarted _ -> "store_restarted"
  | Store_promoted _ -> "store_promoted"
  | Store_failover _ -> "store_failover"
  | Rpc_unknown_service _ -> "rpc_unknown_service"
  | Fleet_placed _ -> "fleet_placed"
  | Upgrade_started _ -> "upgrade_started"
  | Upgrade_done _ -> "upgrade_done"
  | Fleet_degraded _ -> "fleet_degraded"
  | Fleet_rearmed _ -> "fleet_rearmed"
  | Generic { name; _ } -> name

type field = Int of int | Float of float | Str of string

let fields = function
  | Seg_retransmit { conn; seq; len } ->
      [ ("conn", Str conn); ("seq", Int seq); ("len", Int len) ]
  | Rto_fired { conn; backoff; rto_s } ->
      [ ("conn", Str conn); ("backoff", Int backoff); ("rto_s", Float rto_s) ]
  | Repair_export { conn; unacked; snd_una; snd_nxt; rcv_nxt } ->
      [
        ("conn", Str conn); ("unacked", Int unacked);
        ("snd_una", Int snd_una); ("snd_nxt", Int snd_nxt);
        ("rcv_nxt", Int rcv_nxt);
      ]
  | Repair_import { conn; unacked; snd_una; snd_nxt; rcv_nxt } ->
      [
        ("conn", Str conn); ("unacked", Int unacked);
        ("snd_una", Int snd_una); ("snd_nxt", Int snd_nxt);
        ("rcv_nxt", Int rcv_nxt);
      ]
  | Session_frozen { node; conns } ->
      [ ("node", Str node); ("conns", Int conns) ]
  | Session_established { node; peer } ->
      [ ("node", Str node); ("peer", Str peer) ]
  | Session_down { node; peer; reason } ->
      [ ("node", Str node); ("peer", Str peer); ("reason", Str reason) ]
  | Session_resumed { node; peer } -> [ ("node", Str node); ("peer", Str peer) ]
  | Rib_snapshot { node; vrf; size; digest } ->
      [
        ("node", Str node); ("vrf", Str vrf); ("size", Int size);
        ("digest", Str digest);
      ]
  | Routes_withdrawn { node; peer; count } ->
      [ ("node", Str node); ("peer", Str peer); ("count", Int count) ]
  | Bfd_up { node; peer; vrf } ->
      [ ("node", Str node); ("peer", Str peer); ("vrf", Str vrf) ]
  | Bfd_down { node; peer; vrf; silent_s; interval_s; mult } ->
      [
        ("node", Str node); ("peer", Str peer); ("vrf", Str vrf);
        ("silent_s", Float silent_s); ("interval_s", Float interval_s);
        ("mult", Int mult);
      ]
  | Queue_dropped { qnum; depth } -> [ ("qnum", Int qnum); ("depth", Int depth) ]
  | Ack_held { conn; ack; depth } ->
      [ ("conn", Str conn); ("ack", Int ack); ("depth", Int depth) ]
  | Ack_released { conn; ack; held_s } ->
      [ ("conn", Str conn); ("ack", Int ack); ("held_s", Float held_s) ]
  | Ack_dropped { conn; ack } -> [ ("conn", Str conn); ("ack", Int ack) ]
  | Ack_shed { conn; ack; held_s } ->
      [ ("conn", Str conn); ("ack", Int ack); ("held_s", Float held_s) ]
  | Degraded_enter { conn; held; oldest_held_s } ->
      [
        ("conn", Str conn); ("held", Int held);
        ("oldest_held_s", Float oldest_held_s);
      ]
  | Degraded_exit { conn; degraded_s; epoch } ->
      [
        ("conn", Str conn); ("degraded_s", Float degraded_s);
        ("epoch", Int epoch);
      ]
  | Wm_durable { conn; ack } -> [ ("conn", Str conn); ("ack", Int ack) ]
  | Catchup_start { service; vrf } ->
      [ ("service", Str service); ("vrf", Str vrf) ]
  | Catchup_done { service; vrf; msgs; bytes } ->
      [
        ("service", Str service); ("vrf", Str vrf); ("msgs", Int msgs);
        ("bytes", Int bytes);
      ]
  | Replica_promoted { service; container } ->
      [ ("service", Str service); ("container", Str container) ]
  | Container_state { id; host; state } ->
      [ ("id", Str id); ("host", Str host); ("state", Str state) ]
  | Failure_detected { id; kind } -> [ ("id", Str id); ("kind", Str kind) ]
  | Migration_initiated { id } -> [ ("id", Str id) ]
  | Migration_done { id; host; container } ->
      [ ("id", Str id); ("host", Str host); ("container", Str container) ]
  | Host_suspect { host } -> [ ("host", Str host) ]
  | Host_failed { host } -> [ ("host", Str host) ]
  | Failure_injected { service; kind } ->
      [ ("service", Str service); ("kind", Str kind) ]
  | Planned_migration { service } -> [ ("service", Str service) ]
  | Tcp_synced { service; vrf } ->
      [ ("service", Str service); ("vrf", Str vrf) ]
  | Store_unreachable { node } -> [ ("node", Str node) ]
  | Store_recovered { node; outage_s } ->
      [ ("node", Str node); ("outage_s", Float outage_s) ]
  | Migration_deferred { id; reason } ->
      [ ("id", Str id); ("reason", Str reason) ]
  | Store_crashed { node } -> [ ("node", Str node) ]
  | Store_restarted { node } -> [ ("node", Str node) ]
  | Store_promoted { node } -> [ ("node", Str node) ]
  | Store_failover { client; attempts } ->
      [ ("client", Str client); ("attempts", Int attempts) ]
  | Rpc_unknown_service { node; service; count } ->
      [ ("node", Str node); ("service", Str service); ("count", Int count) ]
  | Fleet_placed { service; instance; region; host; container } ->
      [
        ("service", Str service); ("instance", Str instance);
        ("region", Str region); ("host", Str host);
        ("container", Str container);
      ]
  | Upgrade_started { instance; wave; inflight; bound } ->
      [
        ("instance", Str instance); ("wave", Int wave);
        ("inflight", Int inflight); ("bound", Int bound);
      ]
  | Upgrade_done { instance; wave; container } ->
      [
        ("instance", Str instance); ("wave", Int wave);
        ("container", Str container);
      ]
  | Fleet_degraded { instance; region } ->
      [ ("instance", Str instance); ("region", Str region) ]
  | Fleet_rearmed { instance; region; degraded_s } ->
      [
        ("instance", Str instance); ("region", Str region);
        ("degraded_s", Float degraded_s);
      ]
  | Generic { detail; _ } -> [ ("detail", Str detail) ]

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

let field_json = function
  | Int i -> string_of_int i
  | Float f ->
      (* JSON has no literal for non-finite numbers. *)
      if Float.is_nan f then "null"
      else if not (Float.is_finite f) then (if f > 0.0 then "1e999" else "-1e999")
      else if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%.9g" f
  | Str s -> "\"" ^ json_escape s ^ "\""

(* Event names are usually constructor-derived, but [Generic] carries a
   caller-supplied name — escape it like any other string. *)
let to_json ev =
  Printf.sprintf "{\"cat\":\"%s\",\"ev\":\"%s\",\"f\":{%s}}"
    (category_name (category ev))
    (json_escape (name ev))
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (field_json v))
          (fields ev)))

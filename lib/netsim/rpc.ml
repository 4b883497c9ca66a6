open Sim

type body = ..
type body += Ping | Pong

type error = [ `Timeout | `Exhausted of int ]

type retry = {
  attempts : int;
  base_backoff : Time.span;
  max_backoff : Time.span;
  jitter : float;
}

let retry_policy =
  {
    attempts = 3;
    base_backoff = Time.ms 50;
    max_backoff = Time.sec 2;
    jitter = 0.2;
  }

type Packet.payload +=
  | Request of { call_id : int; service : string; body : body }
  | Response of { call_id : int; body : body }

type pending = {
  k : (body, error) result -> unit;
  timeout_handle : Engine.handle;
}

type endpoint = {
  ep_node : Node.t;
  services : (string, src:Addr.t -> body -> reply:(?size:int -> body -> unit) -> unit) Hashtbl.t;
  pending : (int, pending) Hashtbl.t;
  unknown_hits : (string, int) Hashtbl.t;
  mutable next_client : int;
  (* Backoff-jitter stream, split from the engine RNG lazily at the
     first actual backoff computation: endpoints that never retry (the
     default) leave the engine's stream untouched, so existing replay
     digests are unaffected. *)
  mutable retry_rng : Rng.t option;
}

(* One endpoint per node, keyed physically: nodes are unique mutable
   records so physical identity is the right notion. Domain-local, like
   the nodes themselves: a simulation never spans domains, and call ids
   restart per domain so they stay replay-stable under --jobs N. *)
let registry_key : (string, endpoint) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let registry () = Domain.DLS.get registry_key
let next_call_id = Domain.DLS.new_key (fun () -> ref 0)

let source_addr node =
  match Node.addresses node with
  | a :: _ -> a
  | [] -> invalid_arg "Rpc: node has no address"

let node ep = ep.ep_node

let handle_packet ep (pkt : Packet.t) =
  match pkt.payload with
  | Request { call_id; service; body } -> (
      (match Hashtbl.find_opt ep.services service with
      | None ->
          (* Unknown service: the caller still times out (no NAK on the
             wire), but the drop is now counted and visible. *)
          let count =
            1 + Option.value ~default:0 (Hashtbl.find_opt ep.unknown_hits service)
          in
          Hashtbl.replace ep.unknown_hits service count;
          Telemetry.Bus.emit (Node.engine ep.ep_node)
            (Telemetry.Event.Rpc_unknown_service
               { node = Node.name ep.ep_node; service; count })
      | Some handler ->
          let replied = ref false in
          let reply ?(size = 128) rbody =
            if not !replied then begin
              replied := true;
              let resp =
                Packet.make ~src:pkt.dst ~dst:pkt.src ~size
                  (Response { call_id; body = rbody })
              in
              Node.send ep.ep_node resp
            end
          in
          handler ~src:pkt.src body ~reply);
      true)
  | Response { call_id; body } -> (
      (match Hashtbl.find_opt ep.pending call_id with
      | None -> () (* late response after timeout: discarded *)
      | Some p ->
          Hashtbl.remove ep.pending call_id;
          Engine.cancel p.timeout_handle;
          p.k (Ok body));
      true)
  | _ -> false

let endpoint node =
  let key = Node.name node in
  match Hashtbl.find_opt (registry ()) key with
  | Some ep when ep.ep_node == node -> ep
  | Some _ | None ->
      let ep =
        {
          ep_node = node;
          services = Hashtbl.create 8;
          pending = Hashtbl.create 16;
          unknown_hits = Hashtbl.create 4;
          next_client = 0;
          retry_rng = None;
        }
      in
      Node.add_handler node (handle_packet ep);
      Hashtbl.replace (registry ()) key ep;
      ep

let fresh_client_id ep =
  ep.next_client <- ep.next_client + 1;
  ep.next_client

let serve ep ~service handler = Hashtbl.replace ep.services service handler
let unserve ep ~service = Hashtbl.remove ep.services service

let unknown_service_counts ep =
  Det.bindings ~compare:String.compare ep.unknown_hits

let retry_rng ep =
  match ep.retry_rng with
  | Some rng -> rng
  | None ->
      let rng = Rng.split (Engine.rng (Node.engine ep.ep_node)) in
      ep.retry_rng <- Some rng;
      rng

(* Backoff before attempt [failed + 1]: exponential in the number of
   failures, capped, then perturbed by ±jitter so synchronized callers
   spread out. The draw comes from the endpoint's split of the seeded
   engine RNG, never from ambient randomness. *)
let backoff_span ep (r : retry) ~failed =
  let base = Time.to_sec_f r.base_backoff in
  let capped =
    Float.min
      (base *. Float.of_int (1 lsl (failed - 1)))
      (Time.to_sec_f r.max_backoff)
  in
  let factor =
    1.0 +. (r.jitter *. ((2.0 *. Rng.float (retry_rng ep) 1.0) -. 1.0))
  in
  Time.of_sec_f (capped *. factor)

let send_attempt ep ~timeout ~size ~dst ~service body k =
  let next_call_id = Domain.DLS.get next_call_id in
  incr next_call_id;
  let call_id = !next_call_id in
  let eng = Node.engine ep.ep_node in
  let timeout_handle =
    Engine.schedule_after eng ~label:"rpc.timeout" timeout (fun () ->
        if Hashtbl.mem ep.pending call_id then begin
          Hashtbl.remove ep.pending call_id;
          k (Error `Timeout)
        end)
  in
  Hashtbl.replace ep.pending call_id { k; timeout_handle };
  let pkt =
    Packet.make ~src:(source_addr ep.ep_node) ~dst ~size
      (Request { call_id; service; body })
  in
  Node.send ep.ep_node pkt

let call ep ?(timeout = Time.sec 1) ?(size = 128) ?retry ~dst ~service body k =
  match retry with
  | None ->
      (* Default: single attempt, one timeout = one detected failure —
         exactly the pre-retry semantics liveness probes rely on. *)
      send_attempt ep ~timeout ~size ~dst ~service body k
  | Some r ->
      let eng = Node.engine ep.ep_node in
      let rec attempt n =
        send_attempt ep ~timeout ~size ~dst ~service body (function
          | Ok body -> k (Ok body)
          | Error _ when n < r.attempts ->
              let span = backoff_span ep r ~failed:n in
              ignore
                (Engine.schedule_after eng ~label:"rpc.retry" span (fun () ->
                     attempt (n + 1)))
          | Error _ -> k (Error (`Exhausted r.attempts)))
      in
      attempt 1

let ping ep ?timeout ~dst ~service k =
  call ep ?timeout ~dst ~service Ping (function
    | Ok _ -> k true
    | Error (`Timeout | `Exhausted _) -> k false)

let serve_ping ep ~service =
  serve ep ~service (fun ~src:_ body ~reply ->
      match body with Ping -> reply Pong | _ -> reply Pong)

open Sim
open Netsim

type cost_model = {
  chunk : int;
  read_chunk_cost : Time.span;
  read_record_cost : Time.span;
  read_byte_ns : float;
  write_chunk_cost : Time.span;
  write_record_cost : Time.span;
  write_byte_ns : float;
}

(* Calibrated against Figure 5(b) with its 90 B keys and 4 KB values:
   one write ~1 ms, one read <0.5 ms, 10K writes ~500 ms, 10K reads
   ~200 ms. The per-byte components make small records (routing-table
   checkpoint entries) proportionally cheap, as they are on real Redis. *)
let default_cost_model =
  {
    chunk = 128;
    read_chunk_cost = Time.us 240;
    read_record_cost = Time.us 2;
    read_byte_ns = 3.8;
    write_chunk_cost = Time.us 600;
    write_record_cost = Time.us 3;
    write_byte_ns = 10.0;
  }

let free_cost_model =
  {
    chunk = 128;
    read_chunk_cost = 0;
    read_record_cost = 0;
    read_byte_ns = 0.0;
    write_chunk_cost = 0;
    write_record_cost = 0;
    write_byte_ns = 0.0;
  }

module Value = struct
  type t = { head : string; tail : string }

  let v ~head ~tail = { head; tail }
  let of_string s = { head = ""; tail = s }
  let head v = v.head
  let tail v = v.tail
  let length v = String.length v.head + String.length v.tail
  let to_string v = if String.length v.head = 0 then v.tail else v.head ^ v.tail
end

module Batch = struct
  type t = {
    limit : int; (* capacity once grown past the first chunk *)
    mutable keys : string array;
    mutable values : Value.t array;
    mutable n : int;
    mutable bytes : int; (* keys plus modelled value lengths *)
  }

  let first_chunk = 8
  let no_value = Value.of_string ""
  let create limit = { limit; keys = [||]; values = [||]; n = 0; bytes = 0 }
  let length b = b.n

  (* A small first chunk keeps one-record batches cheap; the second
     allocation goes straight to [limit], so a full batch of [limit]
     records costs about [limit] slots per array, not twice that. *)
  let grow b =
    let cap = Array.length b.keys in
    let cap' =
      if cap = 0 then max 1 (min b.limit first_chunk)
      else if cap < b.limit then b.limit
      else 2 * cap
    in
    let keys = Array.make cap' "" and values = Array.make cap' no_value in
    Array.blit b.keys 0 keys 0 b.n;
    Array.blit b.values 0 values 0 b.n;
    b.keys <- keys;
    b.values <- values

  let add b k v =
    if b.n = Array.length b.keys then grow b;
    Array.unsafe_set b.keys b.n k;
    Array.unsafe_set b.values b.n v;
    b.n <- b.n + 1;
    b.bytes <- b.bytes + String.length k + Value.length v

  (* Sized once, since the list's length is known. Pairs that carry the
     very same string as the pair before share its (immutable) value
     record, so writing one value under many keys builds one record. *)
  let of_strings pairs =
    let n = List.length pairs in
    let b =
      { limit = n; keys = Array.make n ""; values = Array.make n no_value; n = 0; bytes = 0 }
    in
    let rec fill last = function
      | [] -> ()
      | (k, v) :: rest ->
          let value = if Value.tail last == v then last else Value.of_string v in
          add b k value;
          fill value rest
    in
    fill no_value pairs;
    b
end

type Rpc.body +=
  | Req_set of Batch.t
  | Req_get of string list
  | Req_del of string list
  | Req_scan of string
  | Req_idem of { client : string; seq : int; inner : Rpc.body }
  | Resp_set_ok
  | Resp_values of (string * string option) list
  | Resp_del_count of int
  | Resp_pairs of (string * Value.t) list

module Server = struct
  type t = {
    snode : Node.t;
    eng : Engine.t;
    cost : cost_model;
    table : (string, Value.t) Hashtbl.t;
    mutable bytes : int;
    mutable busy_until : Time.t;
    mutable replica : t option;
    mutable alive : bool;
    mutable cost_factor : float;
    (* Per-client idempotency window: last seq seen and, once the
       handler replied, the cached response a retransmission replays.
       [None] marks the op as still in flight so a duplicate arriving
       mid-processing is dropped rather than applied twice. One slot
       per client suffices: resilient clients keep at most one request
       outstanding. *)
    idem : (string, int * (Rpc.body * int) option) Hashtbl.t;
  }

  let node t = t.snode

  (* Serving requires both the process (RAM) and the node (network) up:
     [Node.set_up false] models a partition — contents survive — while
     [crash] models the process dying with its no-persistence RAM. *)
  let up t = t.alive && Node.is_up t.snode

  let addr t =
    match Node.addresses t.snode with
    | a :: _ -> a
    | [] -> invalid_arg "Store.Server: node has no address"

  let records t = Hashtbl.length t.table
  let stored_bytes t = t.bytes
  (* Lookups per record use [Hashtbl.find]: [find_opt] boxes every hit,
     and reads, writes and deletes each look every key up. *)
  let peek t key =
    match Hashtbl.find t.table key with
    | v -> Some (Value.to_string v)
    | exception Not_found -> None

  let keys_with_prefix t prefix =
    Det.keys_where ~compare:String.compare ~keep:(String.starts_with ~prefix) t.table

  (* Serialize request processing through the server's modelled CPU, like
     the TCP stack does. *)
  let processing_finish t cost =
    let now = Engine.now t.eng in
    let start = if t.busy_until > now then t.busy_until else now in
    let finish = Time.add start cost in
    t.busy_until <- finish;
    finish

  let op_cost t ~writes ~bytes n =
    if n = 0 then 0
    else
      let chunks = (n + t.cost.chunk - 1) / t.cost.chunk in
      let byte_ns = if writes then t.cost.write_byte_ns else t.cost.read_byte_ns in
      let byte_cost = int_of_float (float_of_int bytes *. byte_ns) in
      let raw =
        if writes then
          (chunks * t.cost.write_chunk_cost)
          + (n * t.cost.write_record_cost)
          + byte_cost
        else
          (chunks * t.cost.read_chunk_cost)
          + (n * t.cost.read_record_cost)
          + byte_cost
      in
      (* Exact for factor 1.0: every span fits a float mantissa. *)
      int_of_float (float_of_int raw *. t.cost_factor)

  (* In batch order: a key written twice in one batch ends with its
     later value. *)
  let apply_set t (b : Batch.t) =
    for i = 0 to b.n - 1 do
      let k = Array.unsafe_get b.keys i and v = Array.unsafe_get b.values i in
      (* lint: allow p3 — Not_found is this match's own case: no lookup escapes *)
      (match Hashtbl.find t.table k with
      | old -> t.bytes <- t.bytes - String.length k - Value.length old
      | exception Not_found -> ());
      Hashtbl.replace t.table k v;
      t.bytes <- t.bytes + String.length k + Value.length v
    done

  let apply_del t keys =
    List.fold_left
      (fun acc k ->
        match Hashtbl.find t.table k with
        | v ->
            Hashtbl.remove t.table k;
            t.bytes <- t.bytes - String.length k - Value.length v;
            acc + 1
        | exception Not_found -> acc)
      0 keys

  let value_bytes t k =
    match Hashtbl.find t.table k with
    | v -> Value.length v
    | exception Not_found -> 0

  (* Writes go to the replica synchronously: the reply is withheld until
     the replica has confirmed (same processing-cost model there). A
     replica found dead — crashed or partitioned — is detached and the
     primary acknowledges alone (degraded redundancy, like Redis dropping
     a sync replica), so a replica failure cannot wedge the write path. *)
  let replicate t op k =
    match t.replica with
    | None -> k ()
    | Some r when not (up r) ->
        t.replica <- None;
        k ()
    | Some r ->
        let cost, apply =
          match op with
          | `Set (b : Batch.t) ->
              ( op_cost r ~writes:true ~bytes:b.bytes b.n,
                fun () -> apply_set r b )
          | `Del keys ->
              ( op_cost r ~writes:true ~bytes:0 (List.length keys),
                fun () -> ignore (apply_del r keys) )
        in
        let finish = processing_finish r cost in
        ignore
          (Engine.schedule_at r.eng ~label:"store.replicate" finish (fun () ->
               if up r then begin
                 apply ();
                 k ()
               end
               else begin
                 t.replica <- None;
                 k ()
               end))

  let rec handle t ~src body ~reply:(reply : ?size:int -> Rpc.body -> unit) =
    match body with
    | Req_idem { client; seq; inner } -> (
        match Hashtbl.find_opt t.idem client with
        | Some (s, _) when seq < s -> () (* stale retransmission *)
        | Some (s, Some (rbody, rsize)) when seq = s ->
            (* Duplicate of an already-answered request: replay the
               cached response without re-applying. *)
            reply ~size:rsize rbody
        | Some (s, None) when seq = s ->
            () (* duplicate while the original is still processing *)
        | _ ->
            Hashtbl.replace t.idem client (seq, None);
            handle t ~src inner
              ~reply:(fun ?(size = 128) rbody ->
                Hashtbl.replace t.idem client (seq, Some (rbody, size));
                reply ~size rbody))
    | Req_set b ->
        let finish =
          processing_finish t (op_cost t ~writes:true ~bytes:b.bytes b.n)
        in
        ignore
          (Engine.schedule_at t.eng ~label:"store.op" finish (fun () ->
               if up t then begin
                 apply_set t b;
                 replicate t (`Set b) (fun () -> reply ~size:64 Resp_set_ok)
               end))
    | Req_get keys ->
        let bytes = List.fold_left (fun acc k -> acc + value_bytes t k) 0 keys in
        let finish =
          processing_finish t (op_cost t ~writes:false ~bytes (List.length keys))
        in
        ignore
          (Engine.schedule_at t.eng ~label:"store.op" finish (fun () ->
               if up t then begin
                 let values = List.map (fun k -> (k, peek t k)) keys in
                 let size =
                   64
                   + List.fold_left
                       (fun acc (k, v) ->
                         acc + String.length k
                         + match v with Some v -> String.length v | None -> 0)
                       0 values
                 in
                 reply ~size (Resp_values values)
               end))
    | Req_del keys ->
        let finish =
          processing_finish t (op_cost t ~writes:true ~bytes:0 (List.length keys))
        in
        ignore
          (Engine.schedule_at t.eng ~label:"store.op" finish (fun () ->
               if up t then begin
                 let n = apply_del t keys in
                 replicate t (`Del keys) (fun () ->
                     reply ~size:64 (Resp_del_count n))
               end))
    | Req_scan prefix ->
        let keys = keys_with_prefix t prefix in
        let bytes = List.fold_left (fun acc k -> acc + value_bytes t k) 0 keys in
        let finish =
          processing_finish t
            (op_cost t ~writes:false ~bytes (max 1 (List.length keys)))
        in
        ignore
          (Engine.schedule_at t.eng ~label:"store.op" finish (fun () ->
               if up t then begin
                 let pairs =
                   List.filter_map
                     (fun k ->
                       match Hashtbl.find_opt t.table k with
                       | Some v -> Some (k, v)
                       | None -> None)
                     keys
                 in
                 let size =
                   List.fold_left
                     (fun acc (k, v) -> acc + String.length k + Value.length v)
                     64 pairs
                 in
                 reply ~size (Resp_pairs pairs)
               end))
    | _ -> ()

  let create ?(cost = default_cost_model) node =
    let t =
      {
        snode = node;
        eng = Node.engine node;
        cost;
        table = Hashtbl.create 1024;
        bytes = 0;
        busy_until = Time.zero;
        replica = None;
        alive = true;
        cost_factor = 1.0;
        idem = Hashtbl.create 16;
      }
    in
    Rpc.serve (Rpc.endpoint node) ~service:"kv" (handle t);
    (* Process-liveness probe: answered only while alive, so a crashed
       store reads as unreachable even though its node still forwards. *)
    Rpc.serve (Rpc.endpoint node) ~service:"kv_health"
      (fun ~src:_ _body ~reply -> if t.alive then reply Rpc.Pong);
    t

  let attach_replica primary replica =
    if primary.snode == replica.snode then
      invalid_arg "Store.Server.attach_replica: replica on the same node";
    primary.replica <- Some replica

  (* The paper's Redis runs without persistence (§4.1): a process crash
     loses every record. The node stays up — only the store process
     died — so requests still arrive and are silently dropped until
     [restart], exactly like a connection-refused backend behind an
     engineered-loss-free channel. *)
  let crash t =
    if t.alive then begin
      t.alive <- false;
      Hashtbl.reset t.table;
      t.bytes <- 0;
      Hashtbl.reset t.idem;
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Store_crashed { node = Node.name t.snode })
    end

  let restart t =
    if not t.alive then begin
      t.alive <- true;
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Store_restarted { node = Node.name t.snode })
    end

  let promote t =
    t.replica <- None;
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Store_promoted { node = Node.name t.snode })

  let set_cost_factor t f =
    if f < 1.0 then invalid_arg "Store.Server.set_cost_factor: factor < 1";
    t.cost_factor <- f
end

module Client = struct
  (* Resilient state, present only when the client opted into retry or
     failover. Ops run strictly one at a time through [queue]: an op's
     retransmissions and failover all complete (or fail) before the next
     op is sent, which preserves per-client FIFO ordering even though a
     retransmission is a fresh RPC. Each op carries an idempotency id
     [(name, seq)] the server deduplicates on. *)
  type resilient = {
    name : string;
    mutable replica : Addr.t option; (* failover target, consumed once *)
    mutable failed : bool; (* true once failover has happened *)
    mutable seq : int;
    mutable queue : (unit -> unit) list; (* pending ops, FIFO order *)
    mutable inflight : bool;
  }

  type t = {
    ep : Rpc.endpoint;
    mutable server : Addr.t;
    resilient : resilient option;
  }

  type mode = Plain | Retrying | Failover of Addr.t

  let create ?(mode = Plain) node ~server =
    let ep = Rpc.endpoint node in
    let resilient replica =
      (* The idempotency-id namespace: unique per node within a run,
         deterministic across replays (the endpoint's counter dies with
         its node). *)
      let name =
        Printf.sprintf "%s#%d" (Node.name node) (Rpc.fresh_client_id ep)
      in
      Some
        { name; replica; failed = false; seq = 0; queue = []; inflight = false }
    in
    match mode with
    | Plain -> { ep; server; resilient = None }
    | Retrying -> { ep; server; resilient = resilient None }
    | Failover addr -> { ep; server; resilient = resilient (Some addr) }

  let start_next r =
    match r.queue with
    | [] -> ()
    | job :: rest ->
        r.queue <- rest;
        r.inflight <- true;
        job ()

  let run_op t r ~size ~timeout inner k_done =
    r.seq <- r.seq + 1;
    let seq = r.seq in
    let body = Req_idem { client = r.name; seq; inner } in
    let rec attempt_target () =
      Rpc.call t.ep ~timeout ~size ~retry:true ~dst:t.server ~service:"kv"
        body (function
        | Ok resp -> k_done (Ok resp)
        | Error err -> (
            match r.replica with
            | Some addr ->
                (* Primary declared dead after a full retry budget: fail
                   over. The same idempotency id is reused, so a write
                   the primary applied but never acknowledged is not
                   double-applied if it raced the failover. *)
                r.replica <- None;
                r.failed <- true;
                t.server <- addr;
                Telemetry.Bus.emit
                  (Node.engine (Rpc.node t.ep))
                  (Telemetry.Event.Store_failover
                     {
                       client = r.name;
                       attempts =
                         (match err with `Exhausted n -> n | `Timeout -> 1);
                     });
                attempt_target ()
            | None -> k_done (Error `Timeout)))
    in
    attempt_target ()

  let exec t ~size ~timeout inner parse =
    match t.resilient with
    | None ->
        Rpc.call t.ep ~timeout ~size ~dst:t.server ~service:"kv" inner parse
    | Some r ->
        let job () =
          run_op t r ~size ~timeout inner (fun res ->
              r.inflight <- false;
              parse res;
              start_next r)
        in
        r.queue <- r.queue @ [ job ];
        if not r.inflight then start_next r

  let add_length acc s = acc + String.length s
  let keys_size keys = List.fold_left add_length 64 keys

  let set_batch t ?(timeout = Time.sec 5) (b : Batch.t) k =
    (* lint: allow h1 — once per write request, which carries a whole batch *)
    exec t ~size:(64 + b.bytes) ~timeout (Req_set b) (function
      | Ok Resp_set_ok -> k (Ok ())
      | Ok _ -> k (Error `Timeout)
      | Error _ -> k (Error `Timeout))

  let set t ?timeout pairs k = set_batch t ?timeout (Batch.of_strings pairs) k

  let get t ?(timeout = Time.sec 5) keys k =
    (* lint: allow h1 — once per read request, not per key *)
    exec t ~size:(keys_size keys) ~timeout (Req_get keys) (function
      | Ok (Resp_values vs) -> k (Ok vs)
      | Ok _ -> k (Error `Timeout)
      | Error _ -> k (Error `Timeout))

  let del t ?(timeout = Time.sec 5) keys k =
    (* lint: allow h1 — once per delete request, not per key *)
    exec t ~size:(keys_size keys) ~timeout (Req_del keys) (function
      | Ok (Resp_del_count n) -> k (Ok n)
      | Ok _ -> k (Error `Timeout)
      | Error _ -> k (Error `Timeout))

  let scan t ~prefix k =
    exec t ~size:(64 + String.length prefix) ~timeout:(Time.sec 30)
      (Req_scan prefix)
      (function
      | Ok (Resp_pairs ps) -> k (Ok ps)
      | Ok _ -> k (Error `Timeout)
      | Error _ -> k (Error `Timeout))
end

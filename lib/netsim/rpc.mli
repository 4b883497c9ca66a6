(** Request/response messaging over the simulated network.

    Used for every control-plane channel in the reproduction: the
    Redis-like store protocol, the controller's gRPC-style health checks,
    and IP SLA probes. Bodies are an extensible variant so each service
    defines its own request and response constructors without [netsim]
    depending on them.

    Calls carry a timeout; the absence of a reply within it produces
    [Error `Timeout], which is exactly the failure signal the TENSOR
    controller's liveness probes consume. By default there is no
    retransmission: the control channels in the modelled deployment are
    engineered loss-free, and a lost or unanswerable request is precisely
    a detected failure. Callers that must survive a transiently dead or
    partitioned server (the store path) opt into retry per call
    ([call ~retry:true]): a bounded attempt budget with exponential
    backoff whose jitter is drawn from a split of the seeded engine RNG,
    so replays stay deterministic. *)

type body = ..

type body += Ping | Pong
(** Built-in bodies for liveness probes (gRPC heartbeat, IP SLA). *)

type endpoint

type error =
  [ `Timeout  (** No reply within the (single) attempt's timeout. *)
  | `Exhausted of int
    (** Every attempt of a retried {!call} timed out; carries the
        attempt count. Only produced with [~retry:true]. *) ]

val endpoint : Node.t -> endpoint
(** The node's RPC endpoint, created on first use (idempotent per node). *)

val node : endpoint -> Node.t

val serve :
  endpoint ->
  service:string ->
  (src:Addr.t -> body -> reply:(?size:int -> body -> unit) -> unit) ->
  unit
(** [serve ep ~service handler] registers the handler for requests naming
    [service]. The handler may call [reply] immediately or from a later
    event (e.g. after a modelled processing delay); [size] is the response
    wire size (default 128 B). Re-registering replaces the handler. *)

val call :
  endpoint ->
  ?timeout:Sim.Time.span ->
  ?size:int ->
  ?retry:bool ->
  dst:Addr.t ->
  service:string ->
  body ->
  ((body, error) result -> unit) ->
  unit
(** [call ep ~dst ~service body k] sends a request ([size] wire bytes,
    default 128) and invokes [k] exactly once: with the response, or with
    [Error `Timeout] after [timeout] (default 1 s). Responses arriving
    after the timeout are discarded.

    With [~retry:true], each of 3 attempts gets its own [timeout]; a
    timed-out attempt is retransmitted (as a fresh call id — handlers
    must be idempotent or deduplicate) after a backoff of 50 ms doubling
    per failure (capped at 2 s, ±20% jitter), and only when the budget
    is spent does [k] get [Error (`Exhausted 3)]. A late response to an
    abandoned attempt is discarded, never double-delivered. *)

val fresh_client_id : endpoint -> int
(** Monotonically increasing per-endpoint id (1, 2, ...) for callers
    that need a name unique on this node — e.g. store-client idempotency
    ids. Endpoint state is re-created with its node, so the stream
    restarts per run and replays stay byte-identical (a process-global
    counter would leak across runs). *)

val ping :
  endpoint ->
  ?timeout:Sim.Time.span ->
  dst:Addr.t ->
  service:string ->
  (bool -> unit) ->
  unit
(** Convenience probe: sends {!Ping}, yields [true] on any reply. The
    destination must serve [service] (conventionally ["health"] for gRPC
    heartbeats and ["ipsla"] for IP SLA probes). *)

val serve_ping : endpoint -> service:string -> unit
(** Installs a trivial responder answering {!Ping} with {!Pong}. *)

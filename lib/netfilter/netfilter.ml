type verdict = Accept | Drop | Queue of int

let m_accepted = Telemetry.Registry.counter "netfilter.accepted"
let m_dropped = Telemetry.Registry.counter "netfilter.dropped"
let m_queued = Telemetry.Registry.counter "netfilter.queued"
let m_depth = Telemetry.Registry.gauge "netfilter.queue_depth"
let m_depth_peak = Telemetry.Registry.gauge "netfilter.queue_depth_peak"

type rule = { judge : Netsim.Packet.t -> verdict }

type queue = {
  mutable consumer :
    (Netsim.Packet.t -> reinject:(verdict -> unit) -> unit) option;
  mutable pending : int;
}

type t = {
  mutable rules : rule list; (* installation order *)
  queues : (int, queue) Hashtbl.t;
  mutable next_qnum : int;
  eng : Sim.Engine.t option; (* for timestamping queue-drop events *)
}

let create ?eng () =
  {
    rules = [];
    queues = Hashtbl.create 4;
    next_qnum = 0;
    eng;
  }

let fresh_queue_num t =
  t.next_qnum <- t.next_qnum + 1;
  t.next_qnum

let add_rule t judge =
  let rule = { judge } in
  t.rules <- t.rules @ [ rule ];
  rule

let remove_rule t rule = t.rules <- List.filter (fun r -> r != rule) t.rules

let queue t n =
  match Hashtbl.find_opt t.queues n with
  | Some q -> q
  | None ->
      let q = { consumer = None; pending = 0 } in
      Hashtbl.replace t.queues n q;
      q

let set_consumer q f = q.consumer <- Some f
let backlog q = q.pending

let rec apply t rules pkt ~emit =
  match rules with
  | [] ->
      Telemetry.Registry.incr m_accepted;
      emit pkt
  | rule :: rest -> (
      match rule.judge pkt with
      | Accept -> apply t rest pkt ~emit
      | Drop ->
          Telemetry.Registry.incr m_dropped
      | Queue n -> (
          let q = queue t n in
          match q.consumer with
          | None ->
              (* Real NFQUEUE semantics: no userspace reader, packet is
                 dropped. *)
              Telemetry.Registry.incr m_dropped;
              (match t.eng with
              | Some eng when Telemetry.Gate.on () ->
                  Telemetry.Bus.emit eng
                    (Telemetry.Event.Queue_dropped
                       { qnum = n; depth = q.pending })
              | _ -> ())
          | Some consumer ->
              Telemetry.Registry.incr m_queued;
              q.pending <- q.pending + 1;
              Telemetry.Registry.set_int m_depth q.pending;
              Telemetry.Registry.set_max_int m_depth_peak q.pending;
              let decided = ref false in
              let reinject verdict =
                if not !decided then begin
                  decided := true;
                  q.pending <- q.pending - 1;
                  Telemetry.Registry.set_int m_depth q.pending;
                  match verdict with
                  | Accept | Queue _ ->
                      Telemetry.Registry.incr m_accepted;
                      emit pkt
                  | Drop ->
                      Telemetry.Registry.incr m_dropped
                end
              in
              consumer pkt ~reinject))

let traverse t pkt ~emit = apply t t.rules pkt ~emit


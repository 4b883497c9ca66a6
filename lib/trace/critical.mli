(** Critical-path extraction over the recorded event DAG.

    Given a finished recovery {!Telemetry.Phase} (e.g. [failover]),
    finds the causal chain of events that closed it: starting from the
    event that emitted the phase's closing bus entry (known via the
    {!Recorder}'s entry bindings), walk [caused_by] parents back to the
    fault-injection edge of the phase window. The chain decomposes the
    phase's duration into per-label {e segments} — consecutive
    same-label hops merged — which by construction {b sum exactly to the
    phase duration}: each hop is the time from the previous event's
    execution to this one's, the first hop starts at the phase start,
    and any gap between the last chain event and the phase end is
    reported as an explicit ["(untraced)"] segment.

    This answers the Fig. 5a question precisely: not just how long BFD
    detection / replica catchup / TCP replay took as phases, but which
    handler chain bounded recovery and where its time went. *)

type segment = {
  label : string;  (** attribution label, or ["(untraced)"] *)
  dur : Sim.Time.span;
  events : int;  (** chain events merged into this segment (0: synthetic) *)
}

type t = {
  span_name : string;  (** the phase's name *)
  start_at : Sim.Time.t;
  stop_at : Sim.Time.t;
  total : Sim.Time.span;  (** [stop_at - start_at] *)
  segments : segment list;  (** time order; durations sum to [total] *)
  events : int;  (** recorded events on the critical path *)
}

val of_phases : name:string -> Telemetry.Phase.t list -> (t, string) result
(** [of_phases ~name phases] extracts the critical path of the last
    finished phase named [name]. Errors when no finished phase of that
    name exists or no traced events fall inside its window. *)

val to_text : t -> string
(** Human-readable table: label, duration, share, event count. *)

val to_json : t -> string
(** [{"span":..,"start_ns":..,"stop_ns":..,"total_ns":..,"events":..,
    "segments":[{"label":..,"dur_ns":..,"events":..},..]}] *)

(* One row per simulated second. *)
let interval = Sim.Time.sec 1

type t = {
  buf : Buffer.t;
  mutable observer : Sim.Engine.observer option;
  mutable run : int;
  mutable next : Sim.Time.t; (* next window boundary to sample at *)
  mutable last_at : Sim.Time.t;
  mutable dirty : bool; (* events dispatched since the last sample *)
}

let sample_row t ~at =
  let buf = t.buf in
  Buffer.add_string buf
    (Printf.sprintf "{\"run\":%d,\"t_ns\":%d,\"metrics\":{" t.run at);
  let first = ref true in
  let field name value =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf "\"%s\":%s" (Telemetry.Event.json_escape name) value)
  in
  List.iter
    (fun m ->
      match m with
      | Telemetry.Registry.Counter (name, c) ->
          field name (string_of_int (Telemetry.Registry.value c))
      | Telemetry.Registry.Gauge (name, g) ->
          field name
            (Telemetry.Event.json_float (Telemetry.Registry.gauge_value g))
      | Telemetry.Registry.Histogram (name, h) ->
          field (name ^ ".count")
            (string_of_int (Telemetry.Registry.hist_count h));
          field (name ^ ".sum")
            (Telemetry.Event.json_float (Telemetry.Registry.hist_sum h)))
    (Telemetry.Registry.all ());
  Buffer.add_string buf "}}\n";
  t.dirty <- false

(* The sampler is deliberately an engine observer, not an
   [Engine.every] timer: a timer would schedule real events — changing
   event counts, perturbing replay digests and keeping [Engine.run]
   alive forever. Observing dispatches costs two comparisons per event
   and stays strictly observation-only, and it sees every layer's
   counters move, not only those that post to the telemetry bus (TCP's
   segment counters post nothing). The trade is that a window with no
   event at all is sampled late (at the next event), which the boundary
   timestamps make explicit. A boundary row is taken before the first
   event at or past it runs. *)
let on_dispatch t at =
  if at < t.last_at then begin
    (* Simulated time went backwards: a fresh engine / next run. *)
    if t.dirty then sample_row t ~at:t.last_at;
    t.run <- t.run + 1;
    t.next <- interval;
    t.last_at <- Sim.Time.zero
  end;
  if at >= t.next then begin
    (* A pathological quiet gap could owe thousands of empty windows;
       emit one row for the stale boundary, then jump to the current
       window, skipping the rest. *)
    let owed = (at - t.next) / interval in
    if owed > 2 then begin
      sample_row t ~at:t.next;
      t.next <- Sim.Time.add t.next (owed * interval)
    end;
    while at >= t.next do
      sample_row t ~at:t.next;
      t.next <- Sim.Time.add t.next interval
    done
  end;
  t.last_at <- at;
  t.dirty <- true

let attach () =
  let t =
    {
      buf = Buffer.create 4096;
      observer = None;
      run = 0;
      next = interval;
      last_at = Sim.Time.zero;
      dirty = false;
    }
  in
  let o =
    {
      Sim.Engine.before =
        (fun ~eng:_ ~id:_ ~parent:_ ~label:_ ~sched_at:_ ~exec_at ->
          on_dispatch t exec_at);
      after = ignore;
    }
  in
  Sim.Engine.attach o;
  t.observer <- Some o;
  t

let detach t =
  (match t.observer with
  | Some o ->
      Sim.Engine.detach o;
      t.observer <- None
  | None -> ());
  (* Final flush: a run shorter than one window still yields a row. *)
  if t.dirty then sample_row t ~at:t.last_at

let to_jsonl t = Buffer.contents t.buf

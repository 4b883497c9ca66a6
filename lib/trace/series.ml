(* One row per simulated second. *)
let interval = Sim.Time.sec 1

type t = {
  select : string -> bool;
  buf : Buffer.t;
  mutable sub : Telemetry.Bus.sub option;
  mutable run : int;
  mutable next : Sim.Time.t; (* next window boundary to sample at *)
  mutable last_at : Sim.Time.t;
  mutable samples : int;
  mutable skipped : int;
  mutable dirty : bool; (* entries observed since the last sample *)
}

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

let sample_row t ~at =
  let buf = t.buf in
  Buffer.add_string buf
    (Printf.sprintf "{\"run\":%d,\"t_ns\":%d,\"metrics\":{" t.run at);
  let first = ref true in
  let field name value =
    if t.select name then begin
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%s" (Telemetry.Event.json_escape name) value)
    end
  in
  List.iter
    (fun m ->
      match m with
      | Telemetry.Registry.Counter (name, c) ->
          field name (string_of_int (Telemetry.Registry.value c))
      | Telemetry.Registry.Gauge (name, g) ->
          field name (json_float (Telemetry.Registry.gauge_value g))
      | Telemetry.Registry.Histogram (name, h) ->
          field (name ^ ".count")
            (string_of_int (Telemetry.Registry.hist_count h));
          field (name ^ ".sum") (json_float (Telemetry.Registry.hist_sum h)))
    (Telemetry.Registry.all ());
  Buffer.add_string buf "}}\n";
  t.samples <- t.samples + 1;
  t.dirty <- false

(* The sampler is deliberately a bus subscriber, not an [Engine.every]
   timer: a timer would schedule real events — changing event counts,
   perturbing replay digests and keeping [Engine.run] alive forever.
   Sampling on observed telemetry entries costs nothing when idle and
   stays strictly observation-only; the trade is that a window with no
   telemetry at all is sampled late (at the next entry), which the
   boundary timestamps make explicit. *)
let on_entry t (e : Telemetry.Bus.entry) =
  if e.at < t.last_at then begin
    (* Simulated time went backwards: a fresh engine / next run. *)
    if t.dirty then sample_row t ~at:t.last_at;
    t.run <- t.run + 1;
    t.next <- interval;
    t.last_at <- Sim.Time.zero
  end;
  (* A pathological quiet gap could owe thousands of empty windows;
     emit one row for the stale boundary, then jump to the current
     window and count the rest as skipped. *)
  let owed = (e.at - t.next) / interval in
  if owed > 2 then begin
    sample_row t ~at:t.next;
    t.skipped <- t.skipped + (owed - 1);
    t.next <- Sim.Time.add t.next (owed * interval)
  end;
  while e.at >= t.next do
    sample_row t ~at:t.next;
    t.next <- Sim.Time.add t.next interval
  done;
  t.last_at <- e.at;
  t.dirty <- true

let attach ?(select = fun _ -> true) () =
  let t =
    {
      select;
      buf = Buffer.create 4096;
      sub = None;
      run = 0;
      next = interval;
      last_at = Sim.Time.zero;
      samples = 0;
      skipped = 0;
      dirty = false;
    }
  in
  t.sub <- Some (Telemetry.Bus.subscribe (fun e -> on_entry t e));
  t

let detach t =
  (match t.sub with
  | Some s ->
      Telemetry.Bus.unsubscribe s;
      t.sub <- None
  | None -> ());
  (* Final flush: a run shorter than one window still yields a row. *)
  if t.dirty then sample_row t ~at:t.last_at

let sample_count t = t.samples
let skipped_windows t = t.skipped
let to_jsonl t = Buffer.contents t.buf

let esc = Telemetry.Event.json_escape

(* ns -> trace_event microseconds (floats allowed by the format). *)
let ts ns = Printf.sprintf "%.3f" (Sim.Time.to_us_f ns)

let subsystem label =
  match String.index_opt label '.' with
  | Some i -> String.sub label 0 i
  | None -> label

(* pid layout: engine tracks are pids 1..n (first-seen order), the phase
   overlay is pid n+1, the critical-path overlay pid n+2. Perfetto
   renders each pid as a process group, so every simulated node /
   subsystem gets its own track and the phases sit alongside. *)
let export ?critical phases =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n';
    Buffer.add_string buf line
  in
  let ntracks = Recorder.track_count () in
  for track = 0 to ntracks - 1 do
    emit
      (Printf.sprintf
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"engine-%d\"}}"
         (track + 1) track)
  done;
  let phase_pid = ntracks + 1 in
  let crit_pid = ntracks + 2 in
  (* Thread ids: one per (track, subsystem), assigned in first-seen
     execution order. The table is only ever point-looked-up; metadata
     lines are emitted at assignment time, so no traversal is needed. *)
  let tids : (int * string, int) Hashtbl.t = Hashtbl.create 64 in
  let tid_counters = Array.make (max ntracks 1) 0 in
  let tid_of track label =
    let sub = subsystem label in
    match Hashtbl.find_opt tids (track, sub) with
    | Some t -> t
    | None ->
        tid_counters.(track) <- tid_counters.(track) + 1;
        let t = tid_counters.(track) in
        Hashtbl.replace tids (track, sub) t;
        emit
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             (track + 1) t (esc sub));
        t
  in
  Recorder.iter (fun n ->
      let tid = tid_of n.track n.label in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"s\":\"t\",\"args\":{\"id\":%d,\"parent\":%d,\"dwell_us\":%s}}"
           (esc n.label) (ts n.exec_at) (n.track + 1) tid n.id n.parent
           (ts (Sim.Time.diff n.exec_at n.sched_at))));
  List.iteri
    (fun i (p : Telemetry.Phase.t) ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"b\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":1}"
           (esc p.name) (i + 1) (ts p.start_at) phase_pid);
      match p.stop_at with
      | Some stop ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"e\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":1}"
               (esc p.name) (i + 1) (ts stop) phase_pid)
      | None -> ())
    phases;
  if phases <> [] then
    emit
      (Printf.sprintf
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"phases\"}}"
         phase_pid);
  (match critical with
  | None -> ()
  | Some (c : Critical.t) ->
      emit
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"critical-path (%s)\"}}"
           crit_pid (esc c.span_name));
      ignore
        (List.fold_left
           (fun at (seg : Critical.segment) ->
             emit
               (Printf.sprintf
                  "{\"name\":\"%s\",\"cat\":\"critical\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":1,\"args\":{\"events\":%d}}"
                  (esc seg.label) (ts at) (ts seg.dur) crit_pid seg.events);
             Sim.Time.add at seg.dur)
           c.start_at c.segments));
  Buffer.add_string buf "\n]}";
  Buffer.contents buf

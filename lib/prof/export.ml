(* Flamegraph-ready views of a profiled run.

   Two sources fold into stacks:
   - profiler rows (host cost per engine-event label), rooted at
     "engine" — one folded set weighted by wall microseconds, one by
     allocated bytes;
   - the run's [Telemetry.Span] trees (causal spans over simulated
     time), weighted by *self* time in simulated microseconds (a span's
     duration minus its closed children's durations).

   Output formats: folded stacks ("a;b;c <weight>" lines, the input
   flamegraph.pl expects) and a single speedscope JSON file carrying all
   profiles. Lines are sorted by stack for deterministic output. *)

type folded = (string * int) list

let folded_of_profiler ~weight () =
  List.filter_map
    (fun (st : Profiler.stat) ->
      let w = weight st in
      if w > 0 then Some ("engine;" ^ st.label, w) else None)
    (Profiler.stats ())

let folded_wall () =
  folded_of_profiler
    ~weight:(fun st -> int_of_float (st.Profiler.wall_s *. 1e6))
    ()

let folded_alloc () =
  folded_of_profiler
    ~weight:(fun st -> int_of_float st.Profiler.alloc_bytes)
    ()

let folded_spans () =
  let spans = Telemetry.Span.spans () in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Telemetry.Span.sid s) spans;
  let dur s =
    match s.Telemetry.Span.stop_at with
    | Some stop -> Sim.Time.diff stop s.Telemetry.Span.start_at
    | None -> 0
  in
  (* Self time: duration minus the closed children's durations. *)
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.Telemetry.Span.parent with
      | Some p ->
          let prev =
            Option.value (Hashtbl.find_opt child_time p) ~default:0
          in
          Hashtbl.replace child_time p (prev + dur s)
      | None -> ())
    spans;
  let rec path s =
    let name = s.Telemetry.Span.name in
    match s.Telemetry.Span.parent with
    | Some p -> (
        match Hashtbl.find_opt by_id p with
        | Some parent -> path parent ^ ";" ^ name
        | None -> name)
    | None -> name
  in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let children =
        Option.value (Hashtbl.find_opt child_time s.Telemetry.Span.sid)
          ~default:0
      in
      let self_us = (dur s - children) / 1_000 in
      if self_us > 0 then begin
        let key = path s in
        let prev = Option.value (Hashtbl.find_opt acc key) ~default:0 in
        Hashtbl.replace acc key (prev + self_us)
      end)
    spans;
  Sim.Det.fold_sorted ~compare:String.compare
    (fun k v acc -> (k, v) :: acc)
    acc []
  |> List.rev

let folded_to_string entries =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (stack, w) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" stack w))
    (List.sort compare entries);
  Buffer.contents buf

(* --- speedscope ----------------------------------------------------------- *)

(* One "sampled" profile per source, sharing a frame table. Each folded
   entry becomes one sample (its stack) with its weight. *)
let speedscope ~name profiles =
  let frames = Hashtbl.create 64 in
  let frame_order = ref [] in
  let frame_index f =
    match Hashtbl.find_opt frames f with
    | Some i -> i
    | None ->
        let i = Hashtbl.length frames in
        Hashtbl.replace frames f i;
        frame_order := f :: !frame_order;
        i
  in
  let esc = Telemetry.Event.json_escape in
  let profile_json (pname, unit_name, entries) =
    let entries = List.sort compare entries in
    let samples =
      List.map
        (fun (stack, _) ->
          String.split_on_char ';' stack
          |> List.map (fun f -> string_of_int (frame_index f))
          |> String.concat ",")
        entries
    in
    let weights = List.map (fun (_, w) -> string_of_int w) entries in
    let total = List.fold_left (fun acc (_, w) -> acc + w) 0 entries in
    Printf.sprintf
      "{\"type\":\"sampled\",\"name\":\"%s\",\"unit\":\"%s\",\"startValue\":0,\"endValue\":%d,\"samples\":[%s],\"weights\":[%s]}"
      (esc pname) (esc unit_name) total
      (String.concat "," (List.map (fun s -> "[" ^ s ^ "]") samples))
      (String.concat "," weights)
  in
  let profiles_json = List.map profile_json profiles in
  let frames_json =
    List.rev_map
      (fun f -> Printf.sprintf "{\"name\":\"%s\"}" (esc f))
      !frame_order
  in
  Printf.sprintf
    "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\"name\":\"%s\",\"shared\":{\"frames\":[%s]},\"profiles\":[%s]}"
    (esc name)
    (String.concat "," frames_json)
    (String.concat "," profiles_json)

let standard_profiles () =
  [
    ("engine wall time", "microseconds", folded_wall ());
    ("engine allocations", "bytes", folded_alloc ());
    ("causal spans (simulated)", "microseconds", folded_spans ());
  ]

let write_dir ~name dir =
  Telemetry.Control.mkdir_p dir;
  let write file = Telemetry.Control.write_file (Filename.concat dir file) in
  write "engine.folded" (folded_to_string (folded_wall ()));
  write "engine_allocs.folded" (folded_to_string (folded_alloc ()));
  write "spans.folded" (folded_to_string (folded_spans ()));
  write "profile.speedscope.json" (speedscope ~name (standard_profiles ()))

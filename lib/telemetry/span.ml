type id = int

let none = -1

type span = {
  sid : id;
  name : string;
  parent : id option;
  start_at : Sim.Time.t;
  mutable stop_at : Sim.Time.t option;
}

(* Finish hook (Causal.Recorder installs itself here) to bind span
   ends to engine events: fired when a real span finishes, with the
   engine whose clock stamped the end. Observation-only — the hook must
   not touch spans or telemetry. *)
type hook = id -> Sim.Engine.t -> unit

(* Span storage, the ambient parent, and the installed hook are all
   domain-local: a domain's runs record into their own table, so span
   ids and parentage never depend on what other domains are doing. *)
type state = {
  mutable next_id : int;
  by_id : (id, span) Hashtbl.t;
  mutable rev_order : span list;
  mutable ambient_span : id option;
  mutable hook : hook option;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        next_id = 0;
        by_id = Hashtbl.create 64;
        rev_order = [];
        ambient_span = None;
        hook = None;
      })

let state () = Domain.DLS.get key

let set_ambient v = (state ()).ambient_span <- v
let ambient () = (state ()).ambient_span
let set_hook h = (state ()).hook <- h

let record name start_at stop_at =
  let st = state () in
  st.next_id <- st.next_id + 1;
  let s =
    { sid = st.next_id; name; parent = st.ambient_span; start_at; stop_at }
  in
  Hashtbl.replace st.by_id s.sid s;
  st.rev_order <- s :: st.rev_order;
  s.sid

let start eng name =
  if not (Gate.on ()) then none else record name (Sim.Engine.now eng) None

let finish eng sid =
  let st = state () in
  match Hashtbl.find_opt st.by_id sid with
  | Some s when s.stop_at = None ->
      s.stop_at <- Some (Sim.Engine.now eng);
      (match st.hook with Some h -> h sid eng | None -> ())
  | Some _ | None -> ()

let add eng name ~start_at ~stop_at =
  if not (Gate.on ()) then none
  else begin
    let sid = record name start_at (Some stop_at) in
    (match (state ()).hook with Some h -> h sid eng | None -> ());
    sid
  end

let spans () = List.rev (state ()).rev_order
let find ~name = List.filter (fun s -> String.equal s.name name) (spans ())
let children sid = List.filter (fun s -> s.parent = Some sid) (spans ())

let roots () =
  let st = state () in
  List.filter
    (fun s ->
      match s.parent with
      | None -> true
      | Some p -> not (Hashtbl.mem st.by_id p))
    (spans ())

let clear () =
  let st = state () in
  Hashtbl.reset st.by_id;
  st.rev_order <- [];
  st.next_id <- 0;
  st.ambient_span <- None

let to_jsonl buf =
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%d,\"parent\":%s,\"name\":\"%s\",\"start_ns\":%d,\"stop_ns\":%s,\"dur_ns\":%s}\n"
           s.sid
           (match s.parent with Some p -> string_of_int p | None -> "null")
           (Event.json_escape s.name)
           s.start_at
           (match s.stop_at with Some t -> string_of_int t | None -> "null")
           (match s.stop_at with
           | Some t -> string_of_int (Sim.Time.diff t s.start_at)
           | None -> "null")))
    (spans ())

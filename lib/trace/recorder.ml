type node = {
  id : int;
  parent : int; (* -1: scheduled from outside event dispatch *)
  track : int;
  label : string;
  sched_at : Sim.Time.t;
  exec_at : Sim.Time.t;
}

let default_limit = 2_000_000

(* Nodes in execution order. Grown manually ([||] until the first
   record): the array element type needs a seed value, so allocation is
   deferred to the first push, like the engine heap. *)
type store = { mutable arr : node array; mutable len : int }

(* Recorder state is domain-local, matching the engine observer slot it
   feeds on: attaching on one domain records the event DAG of that
   domain's engines only, so parallel campaign workers never interleave
   their traces. *)
type state = {
  store : store;
  mutable active : bool;
  mutable node_limit : int;
  mutable dropped_count : int;
  (* (track, id) -> index into [store.arr]. Only point lookups — never
     traversed, so determinism is not at the mercy of hash order. *)
  index : (int * int, int) Hashtbl.t;
  (* Engines seen so far, in first-seen order; list index = track id.
     Compared physically: engines have no identity beyond themselves. *)
  mutable engines : Sim.Engine.t list;
  (* The dispatch in flight: its event id and track ([-1] when it fell
     past the node cap), and the bus log's end when it began. *)
  mutable cur_id : int;
  mutable cur_track : int;
  mutable cur_mark : Telemetry.Bus.mark;
  (* Entry bindings: bus [seq] -> (event id, track) of the event that
     emitted the entry. Entries emitted from harness code, outside
     dispatch, have no event to anchor to and are absent. *)
  bindings : (int, int * int) Hashtbl.t;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        store = { arr = [||]; len = 0 };
        active = false;
        node_limit = default_limit;
        dropped_count = 0;
        index = Hashtbl.create 4096;
        engines = [];
        cur_id = -1;
        cur_track = -1;
        cur_mark = Telemetry.Bus.mark ();
        bindings = Hashtbl.create 64;
      })

let state () = Domain.DLS.get key

let track_count () = List.length (state ()).engines

let track_of_engine eng =
  let rec find i = function
    | [] -> None
    | e :: rest -> if e == eng then Some i else find (i + 1) rest
  in
  find 0 (state ()).engines

let register_track eng =
  match track_of_engine eng with
  | Some i -> i
  | None ->
      let st = state () in
      let i = List.length st.engines in
      st.engines <- st.engines @ [ eng ];
      i

let entry_binding seq = Hashtbl.find_opt (state ()).bindings seq

let reset () =
  let st = state () in
  st.store.arr <- [||];
  st.store.len <- 0;
  st.dropped_count <- 0;
  Hashtbl.reset st.index;
  Hashtbl.reset st.bindings;
  st.engines <- []

let push store n =
  if store.len = Array.length store.arr then begin
    let cap = Array.length store.arr in
    let arr = Array.make (if cap = 0 then 1024 else 2 * cap) n in
    Array.blit store.arr 0 arr 0 store.len;
    store.arr <- arr
  end;
  store.arr.(store.len) <- n;
  store.len <- store.len + 1

let on_dispatch ~eng ~id ~parent ~label ~sched_at ~exec_at =
  let st = state () in
  if st.store.len >= st.node_limit then begin
    st.dropped_count <- st.dropped_count + 1;
    st.cur_track <- -1
  end
  else begin
    let track = register_track eng in
    st.cur_id <- id;
    st.cur_track <- track;
    st.cur_mark <- Telemetry.Bus.mark ();
    Hashtbl.replace st.index (track, id) st.store.len;
    push st.store { id; parent; track; label; sched_at; exec_at }
  end

(* Dispatch does not nest, so every entry appended since the dispatch
   began was emitted by its event. *)
let on_return () =
  let st = state () in
  if st.cur_track >= 0 then
    List.iter
      (fun (e : Telemetry.Bus.entry) ->
        Hashtbl.replace st.bindings e.seq (st.cur_id, st.cur_track))
      (Telemetry.Bus.since st.cur_mark)

let observer = { Sim.Engine.before = on_dispatch; after = on_return }
let enabled () = (state ()).active

let attach ?(limit = default_limit) () =
  if limit <= 0 then invalid_arg "Recorder.attach: limit must be positive";
  let st = state () in
  st.node_limit <- limit;
  if not st.active then Sim.Engine.attach observer;
  st.active <- true

let detach () =
  let st = state () in
  st.active <- false;
  Sim.Engine.detach observer

let node_count () = (state ()).store.len
let dropped () = (state ()).dropped_count
let get i = (state ()).store.arr.(i)

let find ~track ~id =
  let st = state () in
  match Hashtbl.find_opt st.index (track, id) with
  | Some i -> Some st.store.arr.(i)
  | None -> None

let iter f =
  let store = (state ()).store in
  for i = 0 to store.len - 1 do
    f store.arr.(i)
  done


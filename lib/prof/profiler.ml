(* Deterministic engine profiler: per-label cost accounting on the
   [Sim.Engine] observer slot.

   Attribution is by event label (see [Engine.schedule_after ?label]):
   each dispatched event adds its wall time, allocation delta
   ([Gc.allocated_bytes]) and simulated queue dwell to its label's
   row. All of it is host-side observation —
   nothing here reads or writes simulation state, telemetry, or the
   engine RNG, so replay digests are byte-identical with the profiler
   attached or not (a property the test suite pins against the chaos
   corpus). *)

type stat = {
  label : string;
  mutable events : int;
  mutable wall_s : float;
  mutable alloc_bytes : float;
  mutable dwell_s : float; (* simulated enqueue→dispatch time, total *)
  mutable dwell_max_s : float;
}

(* Profiler state is domain-local, matching the engine observer slot it
   feeds on: attaching on one domain profiles the engines that domain
   creates and nothing else, so parallel campaign workers never share a
   stats table. The running event's row and start readings are kept
   between the observer's [before] and [after]: dispatch does not nest. *)
type state = {
  table : (string, stat) Hashtbl.t;
  mutable active : bool;
  mutable cur : stat;
  mutable t0 : float;
  mutable a0 : float;
}

let blank label =
  {
    label;
    events = 0;
    wall_s = 0.0;
    alloc_bytes = 0.0;
    dwell_s = 0.0;
    dwell_max_s = 0.0;
  }

let key =
  Domain.DLS.new_key (fun () ->
      {
        table = Hashtbl.create 64;
        active = false;
        cur = blank "";
        t0 = 0.0;
        a0 = 0.0;
      })

let state () = Domain.DLS.get key

let get table label =
  match Hashtbl.find_opt table label with
  | Some st -> st
  | None ->
      let st = blank label in
      Hashtbl.replace table label st;
      st

(* Measure around the action. Costs of the measurement itself (two
   allocation-counter reads, two clock reads) land inside the sample — a
   known, constant per-event overhead, stated in the docs. *)
let before ~eng:_ ~id:_ ~parent:_ ~label ~sched_at ~exec_at =
  let s = state () in
  let st = get s.table label in
  let d = Sim.Time.to_sec_f (Sim.Time.diff exec_at sched_at) in
  st.dwell_s <- st.dwell_s +. d;
  if d > st.dwell_max_s then st.dwell_max_s <- d;
  s.cur <- st;
  s.a0 <- Gc.allocated_bytes ();
  s.t0 <- Clock.now_s ()

let after () =
  let t1 = Clock.now_s () in
  let a1 = Gc.allocated_bytes () in
  let s = state () in
  let st = s.cur in
  st.events <- st.events + 1;
  st.wall_s <- st.wall_s +. (t1 -. s.t0);
  st.alloc_bytes <- st.alloc_bytes +. (a1 -. s.a0)

let observer = { Sim.Engine.before; after }
let reset () = Hashtbl.reset (state ()).table

let attach () =
  reset ();
  let s = state () in
  if not s.active then Sim.Engine.attach observer;
  s.active <- true

let detach () =
  (state ()).active <- false;
  Sim.Engine.detach observer

let enabled () = (state ()).active

let stats () =
  List.rev
    (Sim.Det.fold_sorted ~compare:String.compare
       (fun _ st acc -> st :: acc)
       (state ()).table [])

let by_wall () =
  List.sort
    (fun a b ->
      match Float.compare b.wall_s a.wall_s with
      | 0 -> String.compare a.label b.label
      | c -> c)
    (stats ())

let sum f = List.fold_left (fun acc st -> acc +. f st) 0.0 (stats ())
let total_events () = List.fold_left (fun acc st -> acc + st.events) 0 (stats ())
let total_wall_s () = sum (fun st -> st.wall_s)

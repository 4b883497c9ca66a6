(* Deterministic engine profiler: per-label cost accounting on the
   [Sim.Engine] observer slot.

   Attribution is by event label (see [Engine.schedule_after ?label]):
   each dispatched event adds its wall time, allocation delta and
   simulated queue dwell to its label's row. Allocation is counted
   exactly: young words from [Gc.minor_words] ([Gc.allocated_bytes] on
   OCaml 5.1 reads the young words since the last minor collection as
   bytes: an eighth of the truth) plus the words allocated straight on
   the major heap, less the reader's own. All of it is host-side observation —
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
  mutable w0 : int; (* words allocated at the event's start *)
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
        w0 = 0;
      })

let state () = Domain.DLS.get key

let get table label =
  match Hashtbl.find_opt table label with
  | Some st -> st
  | None ->
      let st = blank label in
      Hashtbl.replace table label st;
      st

let word_bytes = Sys.word_size / 8

(* Read unboxed into an int, so the allocation window, opened after the
   clock read and closed before the next, holds the action alone. *)
let minor_words () = int_of_float (Gc.minor_words ())

(* Words allocated straight on the major heap (blocks over 256 words:
   RIB arrays, 4 KB frames, hex strings): [Gc.counters]' major words less
   the promoted ones, which a minor collection adds to both. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  int_of_float (major -. promoted)

(* Every word allocated so far. The [Gc.counters] read comes first, so
   its own tuple and boxed floats fall before the young read: between
   two calls, only the second call's [counters_words] are the reader's. *)
let words () =
  let major = direct_major_words () in
  major + minor_words ()

let counters_words =
  let m0 = minor_words () in
  ignore (Sys.opaque_identity (direct_major_words ()));
  minor_words () - m0

let before ~eng:_ ~id:_ ~parent:_ ~label ~sched_at ~exec_at =
  let s = state () in
  let st = get s.table label in
  let d = Sim.Time.to_sec_f (Sim.Time.diff exec_at sched_at) in
  st.dwell_s <- st.dwell_s +. d;
  if d > st.dwell_max_s then st.dwell_max_s <- d;
  s.cur <- st;
  s.t0 <- Clock.now_s ();
  s.w0 <- words ()

let after () =
  let w1 = words () in
  let t1 = Clock.now_s () in
  let s = state () in
  let st = s.cur in
  st.events <- st.events + 1;
  st.wall_s <- st.wall_s +. (t1 -. s.t0);
  st.alloc_bytes <-
    st.alloc_bytes +. float_of_int ((w1 - s.w0 - counters_words) * word_bytes)

(* The young words come from [Gc.minor_words]: the minor count of
   [Gc.counters], which [Gc.allocated_bytes] sums, misses most of them on
   OCaml 5.1. Promotion and major allocation are this domain's, exact. *)
let allocated_bytes () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int word_bytes

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

let cost_table () =
  let rows = by_wall () in
  let events = total_events () and wall = total_wall_s () in
  let alloc = sum (fun st -> st.alloc_bytes) in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "Engine cost by wall time: %d labels, %d events, %.3fs wall, %.1f MB \
     allocated\n\n"
    (List.length rows) events wall (alloc /. 1e6);
  Printf.bprintf buf "%-18s %10s %10s %6s %12s %12s %12s %14s\n" "label"
    "events" "wall ms" "%" "bytes/event" "dwell avg" "dwell max" "bytes";
  List.iter
    (fun st ->
      let per x = x /. float_of_int (max 1 st.events) in
      Printf.bprintf buf
        "%-18s %10d %10.3f %5.1f%% %12.0f %11.3fs %11.3fs %14.0f\n" st.label
        st.events (st.wall_s *. 1e3)
        (if wall > 1e-9 then 100.0 *. st.wall_s /. wall else 0.0)
        (per st.alloc_bytes) (per st.dwell_s) st.dwell_max_s st.alloc_bytes)
    rows;
  Buffer.contents buf

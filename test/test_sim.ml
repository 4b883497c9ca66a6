(* Tests for the discrete-event engine, RNG and time. *)

open Sim

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg

(* --- Time -------------------------------------------------------------- *)

let test_time_units () =
  checki "us" 1_000 (Time.us 1);
  checki "ms" 1_000_000 (Time.ms 1);
  checki "sec" 1_000_000_000 (Time.sec 1);
  checki "minutes" 60_000_000_000 (Time.minutes 1)

let test_time_conversions () =
  checki "of_sec_f" (Time.sec 2) (Time.of_sec_f 2.0);
  checki "of_ms_f rounds" 1_500_000 (Time.of_ms_f 1.5);
  checkf "to_sec_f" 1.5 (Time.to_sec_f (Time.of_sec_f 1.5));
  checkf "to_ms_f" 0.5 (Time.to_ms_f (Time.us 500))

let test_time_arith () =
  checki "add" (Time.ms 3) (Time.add (Time.ms 1) (Time.ms 2));
  checki "diff" (Time.ms 1) (Time.diff (Time.ms 3) (Time.ms 2));
  checki "diff negative" (-1_000_000) (Time.diff (Time.ms 2) (Time.ms 3))

let test_time_pp () =
  check Alcotest.string "s unit" "1.500s" (Time.to_string (Time.of_ms_f 1500.));
  check Alcotest.string "ms unit" "250.000ms" (Time.to_string (Time.ms 250));
  check Alcotest.string "ns unit" "999ns" (Time.to_string 999)

(* --- Engine ------------------------------------------------------------ *)

let test_engine_ordering () =
  let eng = Engine.create () in
  let order = ref [] in
  let tag x () = order := x :: !order in
  ignore (Engine.schedule_after eng (Time.ms 3) (tag "c"));
  ignore (Engine.schedule_after eng (Time.ms 1) (tag "a"));
  ignore (Engine.schedule_after eng (Time.ms 2) (tag "b"));
  Engine.run eng;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_engine_fifo_same_instant () =
  let eng = Engine.create () in
  let order = ref [] in
  for i = 1 to 100 do
    ignore
      (Engine.schedule_after eng (Time.ms 5) (fun () -> order := i :: !order))
  done;
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "fifo" (List.init 100 (fun i -> i + 1))
    (List.rev !order)

(* Packet-scale events (due under 1 ms ahead) and timers sit in
   different tiers of the queue; same-instant entries still fire in
   scheduling order whichever tier holds them. *)
let test_engine_tiers_fire_in_seq_order () =
  let eng = Engine.create () in
  let order = ref [] in
  let note s () = order := s :: !order in
  (* A plain timer, then a packet hop for the same instant. *)
  ignore (Engine.schedule_at eng (Time.ms 2) (note "timer"));
  Engine.run_until eng (Time.us 1_500);
  ignore (Engine.schedule_at eng (Time.ms 2) (note "hop"));
  (* A deadline set before a timer for the same instant. Its wake-up
     pops at 4.5 ms and re-queues near, since the clock is already at
     4.2 ms, while the timer waits far. *)
  let d = Engine.deadline eng ~label:"d" (note "deadline") in
  Engine.set_deadline d (Time.us 4_500);
  Engine.set_deadline d (Time.ms 5);
  ignore (Engine.schedule_at eng (Time.us 4_200) (note "tick"));
  ignore (Engine.schedule_at eng (Time.ms 5) (note "late timer"));
  Engine.run eng;
  check (Alcotest.list Alcotest.string) "seq order across tiers"
    [ "timer"; "hop"; "tick"; "deadline"; "late timer" ]
    (List.rev !order)

let test_engine_clock_advances () =
  let eng = Engine.create () in
  let seen = ref Time.zero in
  ignore
    (Engine.schedule_after eng (Time.ms 7) (fun () -> seen := Engine.now eng));
  Engine.run eng;
  checki "clock at event" (Time.ms 7) !seen;
  checki "clock after run" (Time.ms 7) (Engine.now eng)

let test_engine_nested_scheduling () =
  let eng = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.schedule_after eng (Time.ms 1) (fun () ->
         ignore
           (Engine.schedule_after eng (Time.ms 1) (fun () ->
                ignore
                  (Engine.schedule_after eng (Time.ms 1) (fun () -> incr hits))))));
  Engine.run eng;
  checki "nested fired" 1 !hits;
  checki "final clock" (Time.ms 3) (Engine.now eng)

let test_engine_cancel () =
  let eng = Engine.create () in
  let hits = ref 0 in
  let h = Engine.schedule_after eng (Time.ms 1) (fun () -> incr hits) in
  checki "pending before" 1 (Engine.pending_events eng);
  Engine.cancel h;
  checki "pending after" 0 (Engine.pending_events eng);
  Engine.cancel h (* double cancel is a no-op *);
  Engine.run eng;
  checki "cancelled did not fire" 0 !hits;
  checki "live count" 0 (Engine.pending_events eng)

let test_engine_run_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.schedule_after eng (Time.ms 1) (fun () -> incr hits));
  ignore (Engine.schedule_after eng (Time.ms 10) (fun () -> incr hits));
  Engine.run_until eng (Time.ms 5);
  checki "only first fired" 1 !hits;
  checki "clock forced to limit" (Time.ms 5) (Engine.now eng);
  checki "one still queued" 1 (Engine.pending_events eng);
  Engine.run eng;
  checki "second fired" 2 !hits

(* run_until_cond polls between slices: the clock only ever stops at
   the start, on a slice boundary, or at the deadline. *)
let test_run_until_cond_already_true () =
  let eng = Engine.create () in
  Engine.run_until eng (Time.ms 7);
  checkb "holds" true
    (Engine.run_until_cond eng ~slice:(Time.ms 50) ~deadline:(Time.sec 1)
       (fun () -> true));
  checki "clock unmoved" (Time.ms 7) (Engine.now eng)

let test_run_until_cond_deadline () =
  let eng = Engine.create () in
  checkb "times out" false
    (Engine.run_until_cond eng ~slice:(Time.ms 50) ~deadline:(Time.ms 120)
       (fun () -> false));
  checki "clock at deadline" (Time.ms 120) (Engine.now eng)

let test_run_until_cond_mid_run () =
  let eng = Engine.create () in
  let flag = ref false in
  ignore (Engine.schedule_after eng (Time.ms 120) (fun () -> flag := true));
  checkb "holds" true
    (Engine.run_until_cond eng ~slice:(Time.ms 50) ~deadline:(Time.sec 1)
       (fun () -> !flag));
  checki "first slice boundary after the event" (Time.ms 150) (Engine.now eng)

let test_engine_past_rejected () =
  let eng = Engine.create () in
  ignore
    (Engine.schedule_after eng (Time.ms 5) (fun () ->
         Alcotest.check_raises "past" (Invalid_argument "x") (fun () ->
             try ignore (Engine.schedule_at eng (Time.ms 1) (fun () -> ()))
             with Invalid_argument _ -> raise (Invalid_argument "x"))));
  Engine.run eng

let test_engine_negative_span () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule_after: negative span") (fun () ->
      ignore (Engine.schedule_after eng (-1) (fun () -> ())))

let test_engine_periodic () =
  let eng = Engine.create () in
  let hits = ref 0 in
  let timer = Engine.every eng (Time.ms 10) (fun () -> incr hits) in
  Engine.run_until eng (Time.ms 55);
  checki "five firings" 5 !hits;
  Engine.stop_timer timer;
  Engine.run_until eng (Time.ms 200);
  checki "stopped" 5 !hits

let test_engine_periodic_stop_inside () =
  let eng = Engine.create () in
  let hits = ref 0 in
  let timer_ref = ref None in
  let timer =
    Engine.every eng (Time.ms 10) (fun () ->
        incr hits;
        if !hits = 3 then Engine.stop_timer (Option.get !timer_ref))
  in
  timer_ref := Some timer;
  Engine.run_until eng (Time.sec 1);
  checki "self-stop" 3 !hits

let test_engine_processed_count () =
  let eng = Engine.create () in
  for _ = 1 to 10 do
    ignore (Engine.schedule_after eng (Time.ms 1) (fun () -> ()))
  done;
  Engine.run eng;
  checki "processed" 10 (Engine.processed_events eng)

(* --- Rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  checkb "different streams" false (Rng.int a max_int = Rng.int b max_int)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 9 in
    checkb "inclusive range" true (v >= 5 && v <= 9)
  done

let test_rng_float_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    checkb "float range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independence () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  checkb "split differs" false (Rng.int a max_int = Rng.int b max_int)

let test_rng_lognormal_median () =
  let r = Rng.create 13 in
  let n = 20_001 in
  let vals = Array.init n (fun _ -> Rng.lognormal r ~mu:2.0 ~sigma:1.0) in
  Array.sort compare vals;
  let median = vals.(n / 2) in
  (* exp 2 ~ 7.389 *)
  checkb "median near e^2" true (median > 6.5 && median < 8.3)

(* --- Property tests ---------------------------------------------------- *)

let prop_heap_ordering =
  QCheck.Test.make ~name:"engine fires in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun delays ->
      let eng = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          ignore
            (Engine.schedule_after eng d (fun () ->
                 fired := Engine.now eng :: !fired)))
        delays;
      Engine.run eng;
      let times = List.rev !fired in
      List.length times = List.length delays
      && List.for_all2 ( = ) (List.sort compare times) times)

let prop_cancel_safety =
  QCheck.Test.make ~name:"random cancellations never fire and never leak"
    ~count:100
    QCheck.(list (pair (int_bound 100_000) bool))
    (fun specs ->
      let eng = Engine.create () in
      let fired = ref 0 in
      let expected = ref 0 in
      let handles =
        List.map
          (fun (d, cancel) ->
            if not cancel then incr expected;
            (Engine.schedule_after eng d (fun () -> incr fired), cancel))
          specs
      in
      List.iter (fun (h, cancel) -> if cancel then Engine.cancel h) handles;
      Engine.run eng;
      !fired = !expected && Engine.pending_events eng = 0)

(* --- Deadlines ----------------------------------------------------------- *)

(* Records the instants a deadline fires at. *)
let deadline_rig () =
  let eng = Engine.create () in
  let fired = ref [] in
  let d =
    Engine.deadline eng ~label:"test" (fun () -> fired := Engine.now eng :: !fired)
  in
  (eng, d, fired)

let instants = Alcotest.(list int)

let test_deadline_pushed_later () =
  let eng, d, fired = deadline_rig () in
  Engine.set_deadline d (Time.ms 10);
  Engine.run_until eng (Time.ms 5);
  Engine.set_deadline d (Time.ms 20);
  Engine.run_until eng (Time.ms 15);
  Engine.set_deadline d (Time.ms 30);
  Engine.run eng;
  Alcotest.check instants "fires once, at the final instant" [ Time.ms 30 ]
    !fired;
  checki "nothing left" 0 (Engine.pending_events eng);
  checki "heap empty" 0 (Engine.queued_events eng)

let test_deadline_moved_earlier () =
  let eng, d, fired = deadline_rig () in
  Engine.set_deadline d (Time.ms 30);
  Engine.set_deadline d (Time.ms 10);
  Engine.run_until eng (Time.ms 10);
  Alcotest.check instants "fires at the earlier instant" [ Time.ms 10 ] !fired;
  Engine.run eng;
  Alcotest.check instants "and only then" [ Time.ms 10 ] !fired

let test_deadline_cleared () =
  let eng, d, fired = deadline_rig () in
  Engine.set_deadline d (Time.ms 10);
  checki "armed counts as live" 1 (Engine.pending_events eng);
  Engine.clear_deadline d;
  checki "cleared" 0 (Engine.pending_events eng);
  checki "lazily: the wake-up stays queued" 1 (Engine.queued_events eng);
  Engine.run eng;
  Alcotest.check instants "never fires" [] !fired;
  (* Re-armed after a clear, it fires once more. *)
  Engine.set_deadline d (Time.ms 40);
  Engine.run eng;
  Alcotest.check instants "re-armed" [ Time.ms 40 ] !fired

(* Setting a deadline orders it exactly like cancelling the old event
   and scheduling a fresh one: behind every event scheduled before the
   set at the same instant, ahead of every event scheduled after. *)
let test_deadline_orders_like_reschedule () =
  let eng = Engine.create () in
  let order = ref [] in
  let tag x () = order := x :: !order in
  let d = Engine.deadline eng ~label:"test" (tag "deadline") in
  Engine.set_deadline d (Time.ms 10);
  ignore (Engine.schedule_at eng (Time.ms 10) (tag "before"));
  Engine.set_deadline d (Time.ms 10);
  ignore (Engine.schedule_at eng (Time.ms 10) (tag "after"));
  Engine.run eng;
  check (Alcotest.list Alcotest.string) "fifo of the last set"
    [ "before"; "deadline"; "after" ] (List.rev !order);
  checki "one dispatch per firing" 3 (Engine.processed_events eng)

let test_queued_counts_cancelled () =
  let eng = Engine.create () in
  let h = Engine.schedule_after eng (Time.ms 1) ignore in
  ignore (Engine.schedule_after eng (Time.ms 2) ignore);
  Engine.cancel h;
  checki "live" 1 (Engine.pending_events eng);
  checki "queued keeps the cancelled entry" 2 (Engine.queued_events eng);
  Engine.run eng;
  checki "drained" 0 (Engine.queued_events eng)

(* --- Dispatched events are collectable ----------------------------------- *)

(* Schedules an event whose closure captures a fresh payload, and records
   the payload weakly. Out of line, so no stack slot of the caller keeps
   the payload alive. *)
let[@inline never] schedule_payload eng w slot at =
  let payload = Bytes.make 64 'p' in
  Weak.set w slot (Some payload);
  ignore (Engine.schedule_at eng at (fun () -> ignore (Bytes.length payload)))

(* Neither the heap's slot filler nor the slot an entry vacates may keep
   a dispatched event's closure alive while its engine lives. *)
let test_dispatched_event_unreachable () =
  let eng = Engine.create () in
  let w = Weak.create 3 in
  (* The first payload is due under 1 ms ahead, the others further:
     both tiers of the queue are covered. *)
  schedule_payload eng w 2 (Time.us 500);
  schedule_payload eng w 0 (Time.ms 1);
  for i = 2 to 9 do
    ignore (Engine.schedule_at eng (Time.ms i) ignore)
  done;
  schedule_payload eng w 1 (Time.ms 10);
  Engine.run eng;
  Gc.full_major ();
  checkb "near event's payload collected" false (Weak.check w 2);
  checkb "first event's payload collected" false (Weak.check w 0);
  checkb "last event's payload collected" false (Weak.check w 1);
  checki "engine still live" 11 (Engine.processed_events eng)

(* --- Heap equivalence against a sorted-list reference -------------------- *)

(* A script of engine calls. Delays are mostly tiny, so same-instant
   ties are common; a long prefix of schedules pushes the heap past its
   initial 256 slots. The rest straddle the engine's 1 ms split between
   its near and far tiers, or lie well past it, so entries of both
   tiers tie, deadlines move across the split and cancels hit both. *)
type child =
  | No_child
  | Child of int (* the action schedules a plain event this far ahead *)
  | Push of int * int (* the action sets deadline [k] this far ahead *)

type op =
  | Sched of int * child
  | Cancel of int (* a handle index, modulo the handles issued *)
  | Set of int * int (* deadline, delay *)
  | Clear of int
  | Run of int (* run_until now + n *)

let ndeadlines = 3

let split = 1_000_000

let gen_delay =
  QCheck.Gen.(
    frequency
      [
        (8, int_bound 3);
        (2, int_range 497 503);
        (1, oneofl [ split - 1; split; split + 1 ]);
        (1, map (fun d -> (10 * split) + d) (int_bound 3));
      ])

let gen_child =
  QCheck.Gen.(
    frequency
      [
        (3, return No_child);
        (1, map (fun d -> Child d) gen_delay);
        (1, map2 (fun k d -> Push (k, d)) (int_bound (ndeadlines - 1)) gen_delay);
      ])

let gen_sched = QCheck.Gen.(map2 (fun d c -> Sched (d, c)) gen_delay gen_child)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (8, gen_sched);
        (2, map (fun i -> Cancel i) nat);
        (2, map2 (fun k d -> Set (k, d)) (int_bound (ndeadlines - 1)) gen_delay);
        (1, map (fun k -> Clear k) (int_bound (ndeadlines - 1)));
        (1, map (fun n -> Run n) (int_bound 40));
        (1, map (fun n -> Run n) gen_delay);
      ])

let gen_script =
  QCheck.Gen.(
    map2 ( @ )
      (list_size (int_range 0 400) gen_sched)
      (list_size (int_range 0 400) gen_op))

let show_op = function
  | Sched (d, No_child) -> Printf.sprintf "S%d" d
  | Sched (d, Child c) -> Printf.sprintf "S%d>%d" d c
  | Sched (d, Push (k, c)) -> Printf.sprintf "S%d>d%d+%d" d k c
  | Cancel i -> Printf.sprintf "C%d" i
  | Set (k, d) -> Printf.sprintf "D%d+%d" k d
  | Clear k -> Printf.sprintf "X%d" k
  | Run n -> Printf.sprintf "R%d" n

(* The reference: heap entries in a list kept sorted by (time, seq),
   with lazy cancellation and deadline wake-ups modelled as the engine
   documents them. *)
module Model = struct
  type kind = Plain of int * child (* handle index *) | Wake of int

  type entry = { time : int; seq : int; label : string; kind : kind }

  type dl = {
    mutable armed : bool;
    mutable at : int;
    mutable dseq : int;
    mutable entry : (int * int) option; (* the queued wake-up's (time, seq) *)
  }

  type t = {
    mutable clock : int;
    mutable next_seq : int;
    mutable queue : entry list;
    live : (int, unit) Hashtbl.t; (* handles queued and not cancelled *)
    mutable nhandles : int;
    dls : dl array;
    mutable trace : (int * int * string) list; (* newest first *)
  }

  let create () =
    {
      clock = 0;
      next_seq = 0;
      queue = [];
      live = Hashtbl.create 64;
      nhandles = 0;
      dls = Array.init ndeadlines (fun _ -> { armed = false; at = 0; dseq = 0; entry = None });
      trace = [];
    }

  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let rec insert e = function
    | [] -> [ e ]
    | x :: rest as l -> if before e x then e :: l else x :: insert e rest

  let cancel m h = Hashtbl.remove m.live h

  let schedule m label delay child =
    let h = m.nhandles in
    m.queue <-
      insert { time = m.clock + delay; seq = m.next_seq; label; kind = Plain (h, child) } m.queue;
    m.next_seq <- m.next_seq + 1;
    Hashtbl.replace m.live h ();
    m.nhandles <- h + 1

  let queue_wake m k =
    let d = m.dls.(k) in
    d.entry <- Some (d.at, d.dseq);
    m.queue <-
      insert { time = d.at; seq = d.dseq; label = Printf.sprintf "d%d" k; kind = Wake k } m.queue

  let set_deadline m k instant =
    let d = m.dls.(k) in
    d.armed <- true;
    d.at <- instant;
    d.dseq <- m.next_seq;
    m.next_seq <- m.next_seq + 1;
    match d.entry with
    | Some (t, _) when t <= instant -> ()
    | _ -> queue_wake m k

  let clear_deadline m k = m.dls.(k).armed <- false

  let dispatch m e =
    m.clock <- e.time;
    m.trace <- (e.seq, e.time, e.label) :: m.trace

  let run_child m label = function
    | No_child -> ()
    | Child delay -> schedule m label delay No_child
    | Push (k, delay) -> set_deadline m k (m.clock + delay)

  let rec run_until m limit =
    match m.queue with
    | e :: rest when e.time <= limit ->
        m.queue <- rest;
        (match e.kind with
        | Plain (h, child) ->
            if Hashtbl.mem m.live h then begin
              cancel m h;
              dispatch m e;
              run_child m e.label child
            end
        | Wake k ->
            let d = m.dls.(k) in
            if d.entry = Some (e.time, e.seq) then begin
              d.entry <- None;
              if d.armed then
                if d.dseq = e.seq then begin
                  d.armed <- false;
                  dispatch m e
                end
                else queue_wake m k
            end);
        run_until m limit
    | _ -> if limit > m.clock then m.clock <- limit

  let pending m =
    Hashtbl.length m.live
    + Array.fold_left (fun n d -> if d.armed then n + 1 else n) 0 m.dls

  let queued m = List.length m.queue
end

let run_script script =
  let eng = Engine.create () in
  let m = Model.create () in
  let trace = ref [] in
  let record () =
    trace := (Engine.current_event_id eng, Engine.now eng, Engine.current_label eng) :: !trace
  in
  let deadlines =
    Array.init ndeadlines (fun k ->
        Engine.deadline eng ~label:(Printf.sprintf "d%d" k) record)
  in
  let handles = Hashtbl.create 64 in
  let add_handle h = Hashtbl.replace handles (Hashtbl.length handles) h in
  let action = function
    | No_child -> record
    | Child delay ->
        fun () ->
          record ();
          (* No label: the child inherits the running event's. *)
          add_handle (Engine.schedule_after eng delay record)
    | Push (k, delay) ->
        fun () ->
          record ();
          Engine.set_deadline deadlines.(k) (Engine.now eng + delay)
  in
  let ok = ref true in
  List.iteri
    (fun i op ->
      (match op with
      | Sched (delay, child) ->
          let label = Printf.sprintf "e%d" (i mod 3) in
          add_handle (Engine.schedule_after eng ~label delay (action child));
          Model.schedule m label delay child
      | Cancel i ->
          let n = Hashtbl.length handles in
          if n > 0 then begin
            Engine.cancel (Hashtbl.find handles (i mod n));
            Model.cancel m (i mod n)
          end
      | Set (k, delay) ->
          Engine.set_deadline deadlines.(k) (Engine.now eng + delay);
          Model.set_deadline m k (m.Model.clock + delay)
      | Clear k ->
          Engine.clear_deadline deadlines.(k);
          Model.clear_deadline m k
      | Run n ->
          Engine.run_until eng (Engine.now eng + n);
          Model.run_until m (m.Model.clock + n));
      ok :=
        !ok
        && Engine.pending_events eng = Model.pending m
        && Engine.queued_events eng = Model.queued m)
    script;
  Engine.run eng;
  Model.run_until m max_int;
  !ok && !trace = m.Model.trace && Engine.queued_events eng = 0

let prop_heap_matches_reference =
  QCheck.Test.make ~name:"dispatch trace and counts match a sorted-list reference"
    ~count:60
    (QCheck.make ~print:(fun s -> String.concat " " (List.map show_op s)) gen_script)
    run_script

(* --- Recycled records against one plain event each ------------------------ *)

(* Fifos, timers and deadlines re-queue one engine record each. The
   reference runs the same script with one plain event per item, per
   firing and per setting, as the engine did before it recycled
   records: a fifo item is a [schedule_at] of its own, a timer re-arms
   with a closure per firing, and a deadline is cancel-and-reschedule.
   The two runs must dispatch the same events (id, instant, label,
   parent, enqueue instant) and agree on [pending_events] after every
   step of the script. *)

type src_child =
  | Quiet
  | Enq_to of int * int (* enqueue a quiet item on fifo [k], this far ahead *)
  | Set_to of int * int (* set deadline [k] this far ahead *)

type src_op =
  | Enq of int * int * src_child (* fifo, delay, what its handler does *)
  | Every of int * bool * bool * int * src_child
      (* period, jittered, labelled, stop itself after n firings (0:
         never), what each firing does *)
  | Stop of int (* a timer index, modulo the timers made *)
  | Plain of int * src_child
  | Cancel_plain of int (* a handle index, modulo the handles issued *)
  | Dset of int * int
  | Dclear of int
  | Go of int (* run_until now + n *)

let nfifos = 2

(* What a script drives: the engine's sources, or the reference. *)
type sources = {
  enqueue : int -> Time.t -> src_child -> unit;
  every : ?label:string -> jitter:float -> Time.span -> (unit -> unit) -> unit -> unit;
      (* returns the timer's stop *)
  set : int -> Time.t -> unit;
  clear : int -> unit;
}

let fifo_label k = Printf.sprintf "f%d" k
let deadline_label k = Printf.sprintf "d%d" k

let engine_sources eng handle =
  let fifos =
    Array.init nfifos (fun k -> Engine.fifo eng ~label:(fifo_label k) ~dummy:Quiet)
  in
  Array.iter (fun q -> Engine.set_handler q handle) fifos;
  let dls = Array.init ndeadlines (fun k -> Engine.deadline eng ~label:(deadline_label k) ignore) in
  {
    enqueue = (fun k at c -> Engine.enqueue fifos.(k) at c);
    every =
      (fun ?label ~jitter period f ->
        let tm = Engine.every eng ?label ~jitter period f in
        fun () -> Engine.stop_timer tm);
    set = (fun k at -> Engine.set_deadline dls.(k) at);
    clear = (fun k -> Engine.clear_deadline dls.(k));
  }

(* [Engine.every] as it was, a closure scheduled per firing. *)
let ref_every eng ?label ~jitter period f =
  let stopped = ref false and pending = ref None in
  let rng = if jitter <= 0.0 then None else Some (Rng.split (Engine.rng eng)) in
  let next_delay () =
    match rng with
    | None -> period
    | Some rng ->
        let j = Rng.float rng (2.0 *. jitter) -. jitter in
        max 1 (int_of_float (float_of_int period *. (1.0 +. j)))
  in
  let rec fire () =
    pending := None;
    if not !stopped then begin
      f ();
      arm ()
    end
  and arm () =
    if not !stopped then
      pending := Some (Engine.schedule_after eng ?label (next_delay ()) fire)
  in
  arm ();
  fun () ->
    stopped := true;
    Option.iter Engine.cancel !pending

let reference_sources eng handle =
  let dls = Array.make ndeadlines None in
  let clear k = Option.iter Engine.cancel dls.(k) in
  {
    enqueue =
      (fun k at c ->
        ignore (Engine.schedule_at eng ~label:(fifo_label k) at (fun () -> handle c)));
    every = ref_every eng;
    set =
      (fun k at ->
        clear k;
        dls.(k) <- Some (Engine.schedule_at eng ~label:(deadline_label k) at ignore));
    clear;
  }

(* Fifo and plain delays straddle the engine's tier split and come in
   random order, so items often fall due before a fifo's tail. *)
let gen_src_child =
  QCheck.Gen.(
    frequency
      [
        (3, return Quiet);
        (1, map2 (fun k d -> Enq_to (k, d)) (int_bound (nfifos - 1)) gen_delay);
        (1, map2 (fun k d -> Set_to (k, d)) (int_bound (ndeadlines - 1)) gen_delay);
      ])

let gen_period =
  QCheck.Gen.(frequency [ (3, int_range 200 700); (1, oneofl [ split - 1; split; split + 1 ]) ])

let gen_src_op =
  QCheck.Gen.(
    frequency
      [
        (8, map3 (fun k d c -> Enq (k, d, c)) (int_bound (nfifos - 1)) gen_delay gen_src_child);
        ( 1,
          map3
            (fun (p, j) (l, n) c -> Every (p, j, l, n, c))
            (pair gen_period bool) (pair bool (int_bound 4)) gen_src_child );
        (1, map (fun i -> Stop i) nat);
        (2, map2 (fun d c -> Plain (d, c)) gen_delay gen_src_child);
        (1, map (fun i -> Cancel_plain i) nat);
        (2, map2 (fun k d -> Dset (k, d)) (int_bound (ndeadlines - 1)) gen_delay);
        (1, map (fun k -> Dclear k) (int_bound (ndeadlines - 1)));
        (2, map (fun n -> Go n) (int_bound 2000));
        (1, map (fun n -> Go n) gen_delay);
      ])

let show_src_child = function
  | Quiet -> ""
  | Enq_to (k, d) -> Printf.sprintf ">f%d+%d" k d
  | Set_to (k, d) -> Printf.sprintf ">d%d+%d" k d

let show_src_op = function
  | Enq (k, d, c) -> Printf.sprintf "F%d+%d%s" k d (show_src_child c)
  | Every (p, j, l, n, c) ->
      Printf.sprintf "T%d%s%s/%d%s" p (if j then "j" else "") (if l then "l" else "") n
        (show_src_child c)
  | Stop i -> Printf.sprintf "K%d" i
  | Plain (d, c) -> Printf.sprintf "S%d%s" d (show_src_child c)
  | Cancel_plain i -> Printf.sprintf "C%d" i
  | Dset (k, d) -> Printf.sprintf "D%d+%d" k d
  | Dclear k -> Printf.sprintf "X%d" k
  | Go n -> Printf.sprintf "R%d" n

(* Every dispatch of [eng], newest first, and [pending_events] after
   each op. The observer slot is per domain, so it filters on [eng]. *)
let run_src_script make script =
  let eng = Engine.create ~seed:5 () in
  let trace = ref [] and pending = ref [] in
  let obs =
    {
      Engine.before =
        (fun ~eng:e ~id ~parent ~label ~sched_at ~exec_at ->
          if e == eng then trace := (id, exec_at, label, parent, sched_at) :: !trace);
      after = ignore;
    }
  in
  let src = ref None in
  let handle c =
    let s = Option.get !src in
    match c with
    | Quiet -> ()
    | Enq_to (k, d) -> s.enqueue k (Engine.now eng + d) Quiet
    | Set_to (k, d) -> s.set k (Engine.now eng + d)
  in
  let s = make eng handle in
  src := Some s;
  let stops = ref [] and handles = ref [] in
  let op i = function
    | Enq (k, d, c) -> s.enqueue k (Engine.now eng + d) c
    | Every (period, jittered, labelled, n, c) ->
        let fired = ref 0 and stop = ref ignore in
        let label = if labelled then Some (Printf.sprintf "t%d" i) else None in
        stop :=
          s.every ?label ~jitter:(if jittered then 0.3 else 0.0) period (fun () ->
              incr fired;
              handle c;
              if !fired = n then !stop ());
        stops := !stop :: !stops
    | Stop i -> (
        match !stops with [] -> () | l -> (List.nth l (i mod List.length l)) ())
    | Plain (d, c) ->
        handles :=
          Engine.schedule_after eng ~label:"plain" d (fun () -> handle c) :: !handles
    | Cancel_plain i -> (
        match !handles with
        | [] -> ()
        | l -> Engine.cancel (List.nth l (i mod List.length l)))
    | Dset (k, d) -> s.set k (Engine.now eng + d)
    | Dclear k -> s.clear k
    | Go n -> Engine.run_until eng (Engine.now eng + n)
  in
  Engine.attach obs;
  Fun.protect
    ~finally:(fun () -> Engine.detach obs)
    (fun () ->
      List.iteri
        (fun i o ->
          op i o;
          pending := Engine.pending_events eng :: !pending)
        script;
      List.iter (fun stop -> stop ()) !stops;
      Engine.run eng;
      (!trace, Engine.pending_events eng :: !pending))

let prop_sources_match_reference =
  QCheck.Test.make ~name:"recycled records = one plain event each" ~count:300
    (QCheck.make
       ~print:(fun s -> String.concat " " (List.map show_src_op s))
       QCheck.Gen.(list_size (int_range 1 150) gen_src_op))
    (fun script ->
      run_src_script engine_sources script = run_src_script reference_sources script)

(* --- Recycled records allocate nothing per event ------------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* N firings of a timer allocate no event record: the timer re-queues
   its one record. A jittered firing may box the float its draw
   returns (2 words), as [Rng.float] is not inlined across modules in a
   dev build; a record per firing would be 9 words more. *)
let test_timer_firings_allocate_nothing () =
  List.iter
    (fun (jitter, per_firing) ->
      let eng = Engine.create () in
      let hits = ref 0 in
      let timer = Engine.every eng ~jitter (Time.us 10) (fun () -> incr hits) in
      let n = 1000 in
      Engine.run_until eng (Time.us (10 * n));
      let before = !hits in
      let w = minor_words (fun () -> Engine.run_until eng (Time.us (20 * n))) in
      Engine.stop_timer timer;
      let fired = !hits - before in
      checkb "fired" true (fired > n / 2);
      if w > (per_firing * fired) + 64 then
        Alcotest.failf "jitter %.1f: %d words for %d firings" jitter w fired)
    [ (0.0, 0); (0.1, 2) ]

(* N items through a fifo whose ring has grown allocate nothing: only
   the head item is queued, in the fifo's one record. *)
let test_fifo_items_allocate_nothing () =
  let eng = Engine.create () in
  let got = ref 0 in
  let q = Engine.fifo eng ~label:"items" ~dummy:0 in
  Engine.set_handler q (fun x -> got := !got + x);
  let n = 1000 in
  let burst () =
    for i = 1 to n do
      Engine.enqueue q (Engine.now eng + i) 1
    done;
    Engine.run eng
  in
  burst ();
  let w = minor_words burst in
  checki "every item handled" (2 * n) !got;
  if w > 64 then Alcotest.failf "%d words for %d items" w n

(* A deadline pushed later from each firing of its own watched stream
   re-queues its one wake-up record. *)
let test_deadline_rearm_allocates_nothing () =
  let eng = Engine.create () in
  let d = Engine.deadline eng ~label:"watch" ignore in
  let q = Engine.fifo eng ~label:"packets" ~dummy:() in
  Engine.set_handler q (fun () -> Engine.set_deadline d (Engine.now eng + Time.us 30));
  let n = 1000 in
  let stream () =
    for i = 1 to n do
      Engine.enqueue q (Engine.now eng + Time.us (10 * i)) ()
    done;
    Engine.run eng
  in
  stream ();
  let w = minor_words stream in
  if w > 64 then Alcotest.failf "%d words for %d re-arms and expiries" w n

(* --- RNG: the unboxed state draws the boxed generator's streams ---------- *)

(* The generator as it was with its state in a mutable [int64] field:
   every stream of [Rng] must stay bit-identical to it. *)
module Ref = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = Int64.of_int seed }

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let split t =
    let seed = bits64 t in
    { state = mix64 seed }

  let int t bound =
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    v mod bound

  let int_in t lo hi = lo + int t (hi - lo + 1)

  let float t bound =
    let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
    bound *. (v /. 9007199254740992.0)

  let bernoulli t p = float t 1.0 < p
end

(* One round of every draw, compared bit for bit; [false] on the first
   difference. *)
let same_draws r q =
  let bits f = Int64.bits_of_float f in
  Rng.int r 1_000_003 = Ref.int q 1_000_003
  && Rng.int r max_int = Ref.int q max_int
  && Rng.int_in r (-50) 50 = Ref.int_in q (-50) 50
  && bits (Rng.float r 1.0) = bits (Ref.float q 1.0)
  && bits (Rng.float r 2.5e9) = bits (Ref.float q 2.5e9)
  && Rng.bernoulli r 0.0 = Ref.bernoulli q 0.0
  && Rng.bernoulli r 0.3 = Ref.bernoulli q 0.3
  && Rng.bernoulli r 1.0 = Ref.bernoulli q 1.0

let prop_rng_matches_boxed_reference =
  QCheck.Test.make ~name:"rng streams match the boxed-state generator"
    ~count:50 QCheck.int
    (fun seed ->
      let r = Rng.create seed and q = Ref.create seed in
      let rec rounds n r q = n = 0 || (same_draws r q && rounds (n - 1) r q) in
      rounds 50 r q && rounds 50 (Rng.split r) (Ref.split q) && rounds 10 r q)

(* [int] and [bernoulli] draws allocate nothing: each [Link.transmit]
   draws once and each jittered timer firing once more. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 21 in
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      f ()
    done;
    Gc.minor_words () -. before
  in
  checkf "bernoulli" 0.0 (words (fun () -> ignore (Rng.bernoulli r 0.3)));
  checkf "int" 0.0 (words (fun () -> ignore (Rng.int r 1_000)))

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"rng ints hit every bucket" ~count:20
    QCheck.(int_range 2 20)
    (fun buckets ->
      let r = Rng.create 77 in
      let hits = Array.make buckets 0 in
      for _ = 1 to buckets * 200 do
        let v = Rng.int r buckets in
        hits.(v) <- hits.(v) + 1
      done;
      Array.for_all (fun h -> h > 0) hits)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo at same instant" `Quick
            test_engine_fifo_same_instant;
          Alcotest.test_case "tiers fire in seq order" `Quick
            test_engine_tiers_fire_in_seq_order;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "run_until_cond already true" `Quick
            test_run_until_cond_already_true;
          Alcotest.test_case "run_until_cond deadline" `Quick
            test_run_until_cond_deadline;
          Alcotest.test_case "run_until_cond mid-run" `Quick
            test_run_until_cond_mid_run;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "negative span rejected" `Quick
            test_engine_negative_span;
          Alcotest.test_case "periodic timer" `Quick test_engine_periodic;
          Alcotest.test_case "periodic stop inside callback" `Quick
            test_engine_periodic_stop_inside;
          Alcotest.test_case "processed count" `Quick
            test_engine_processed_count;
          Alcotest.test_case "queued counts cancelled" `Quick
            test_queued_counts_cancelled;
          Alcotest.test_case "dispatched events unreachable" `Quick
            test_dispatched_event_unreachable;
          Alcotest.test_case "timer firings allocate nothing" `Quick
            test_timer_firings_allocate_nothing;
          Alcotest.test_case "fifo items allocate nothing" `Quick
            test_fifo_items_allocate_nothing;
          Alcotest.test_case "deadline re-arms allocate nothing" `Quick
            test_deadline_rearm_allocates_nothing;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "pushed later fires once" `Quick
            test_deadline_pushed_later;
          Alcotest.test_case "moved earlier" `Quick test_deadline_moved_earlier;
          Alcotest.test_case "cleared never fires" `Quick test_deadline_cleared;
          Alcotest.test_case "orders like reschedule" `Quick
            test_deadline_orders_like_reschedule;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independence;
          Alcotest.test_case "lognormal median" `Quick
            test_rng_lognormal_median;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heap_ordering;
            prop_cancel_safety;
            prop_heap_matches_reference;
            prop_sources_match_reference;
            prop_rng_int_uniformish;
            prop_rng_matches_boxed_reference;
          ]
      );
    ]

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
  checki "minutes" 60_000_000_000 (Time.minutes 1);
  checki "hours" 3_600_000_000_000 (Time.hours 1)

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
  checkb "pending before" true (Engine.is_pending h);
  Engine.cancel h;
  checkb "pending after" false (Engine.is_pending h);
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
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  checkb "different streams" false (Rng.bits64 a = Rng.bits64 b)

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
  checkb "split differs" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 3.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 3" true (mean > 2.8 && mean < 3.2)

let test_rng_lognormal_median () =
  let r = Rng.create 13 in
  let n = 20_001 in
  let vals = Array.init n (fun _ -> Rng.lognormal r ~mu:2.0 ~sigma:1.0) in
  Array.sort compare vals;
  let median = vals.(n / 2) in
  (* exp 2 ~ 7.389 *)
  checkb "median near e^2" true (median > 6.5 && median < 8.3)

let test_rng_shuffle_permutation () =
  let r = Rng.create 15 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

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
          Alcotest.test_case "exponential mean" `Quick
            test_rng_exponential_mean;
          Alcotest.test_case "lognormal median" `Quick
            test_rng_lognormal_median;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_permutation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heap_ordering;
            prop_cancel_safety;
            prop_rng_int_uniformish;
          ]
      );
    ]

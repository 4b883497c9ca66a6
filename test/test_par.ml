(* The domain pool's contract (results, progress, and exceptions all in
   index order; stats account for every task) and the property the whole
   PR rests on: replaying any committed corpus entry, or running a
   campaign, gives byte-identical digests whether it executes on 1, 2,
   or 4 domains. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Pool: ordering, coverage, stats ---------------------------------------- *)

let test_results_in_index_order () =
  List.iter
    (fun jobs ->
      let results, stats = Par.Pool.run ~jobs 23 (fun i -> i * i) in
      checki (Printf.sprintf "jobs=%d: all tasks ran" jobs) 23
        (Array.length results);
      Array.iteri
        (fun i r ->
          checki (Printf.sprintf "jobs=%d: slot %d holds f %d" jobs i i)
            (i * i) r)
        results;
      checkb "stats jobs positive" true (stats.Par.Pool.jobs >= 1);
      let tasks =
        List.fold_left
          (fun acc d -> acc + d.Par.Pool.tasks)
          0 stats.Par.Pool.domains
      in
      checki (Printf.sprintf "jobs=%d: per-domain tasks sum to n" jobs) 23
        tasks)
    [ 1; 2; 4 ]

let test_progress_in_index_order () =
  (* Delay early indices so later ones complete first on other domains:
     delivery order must still be 0, 1, 2, … *)
  let n = 16 in
  let seen = ref [] in
  let results, _ =
    Par.Pool.run ~jobs:4
      ~progress:(fun i v ->
        checki "progress value matches task" (i * 10) v;
        seen := i :: !seen)
      n
      (fun i ->
        if i < 4 then begin
          (* burn some cycles: make low indices the slow ones *)
          let acc = ref 0 in
          for k = 0 to 2_000_000 do
            acc := !acc lxor k
          done;
          ignore !acc
        end;
        i * 10)
  in
  checki "all results" n (Array.length results);
  let order = List.rev !seen in
  Alcotest.(check (list int))
    "progress fired for 0, 1, 2, … in order"
    (List.init n Fun.id) order

let test_empty_and_singleton () =
  let r, stats = Par.Pool.run ~jobs:4 0 (fun _ -> assert false) in
  checki "zero tasks" 0 (Array.length r);
  checki "no more workers than tasks" 1 stats.Par.Pool.jobs;
  let r, _ = Par.Pool.run ~jobs:4 1 (fun i -> i + 1) in
  checki "single task result" 1 r.(0);
  checkb "negative count rejected" true
    (match Par.Pool.run (-1) (fun i -> i) with
    | exception Invalid_argument _ -> true
    | _ -> false)

exception Boom of int

let test_lowest_failed_index_reraised () =
  (* Several tasks fail; the pool must re-raise the one a sequential
     loop would have hit first, regardless of completion order. *)
  List.iter
    (fun jobs ->
      match
        Par.Pool.run ~jobs 12 (fun i ->
            if i = 5 || i = 9 then raise (Boom i);
            i)
      with
      | _ -> Alcotest.failf "jobs=%d: failure swallowed" jobs
      | exception Boom i ->
          checki (Printf.sprintf "jobs=%d: lowest failed index wins" jobs) 5 i)
    [ 1; 2; 4 ]

let test_progress_stops_before_failure () =
  (* Progress must never fire past the first failing index: the output
     of a failing --jobs N campaign has to match the sequential one,
     which stops printing at the failure. *)
  let fired = ref [] in
  (match
     Par.Pool.run ~jobs:4
       ~progress:(fun i _ -> fired := i :: !fired)
       10
       (fun i ->
         if i = 3 then raise (Boom i);
         i)
   with
  | _ -> Alcotest.fail "failure swallowed"
  | exception Boom _ -> ());
  List.iter
    (fun i -> checkb (Printf.sprintf "no progress for index %d" i) true (i < 3))
    !fired

let test_raising_progress_joins_domains () =
  (* A progress callback that raises must not leak worker domains; the
     pool joins them all before the exception escapes. Observable here
     as: the call raises our exception (not a Domain error) and the
     process keeps running more pool calls afterwards. *)
  (match
     Par.Pool.run ~jobs:4
       ~progress:(fun i _ -> if i = 2 then failwith "printer broke")
       8 Fun.id
   with
  | _ -> Alcotest.fail "progress exception swallowed"
  | exception Failure m -> checks "progress exception surfaces" "printer broke" m);
  let r, _ = Par.Pool.run ~jobs:4 4 Fun.id in
  checki "pool still usable after the failed call" 4 (Array.length r)

(* --- Determinism: corpus replay under 1, 2, and 4 domains ------------------- *)

let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "../corpus"

let test_corpus_replay_digest_invariant () =
  let entries = Chaos.Corpus.load_dir corpus_dir in
  checkb "committed corpus is non-empty" true (entries <> []);
  let descriptors =
    List.map
      (fun (name, parsed) ->
        match parsed with
        | Ok d -> (name, d)
        | Error e -> Alcotest.failf "corpus entry %s: %s" name e)
      entries
  in
  let replay jobs =
    let arr = Array.of_list descriptors in
    let results, _ =
      Par.Pool.run ~jobs (Array.length arr) (fun i ->
          let name, d = arr.(i) in
          let o = Chaos.Runner.run d in
          (name, o.Chaos.Runner.digest, o.Chaos.Runner.events,
           Chaos.Runner.ok o))
    in
    Array.to_list results
  in
  let seq = replay 1 in
  List.iter
    (fun (name, _, _, ok) ->
      checkb (name ^ " replays green") true ok)
    seq;
  List.iter
    (fun jobs ->
      let par = replay jobs in
      List.iter2
        (fun (n1, d1, e1, _) (n2, d2, e2, _) ->
          checks (Printf.sprintf "%s: jobs=%d same entry" n1 jobs) n1 n2;
          checks (Printf.sprintf "%s: jobs=%d digest identical" n1 jobs) d1 d2;
          checki (Printf.sprintf "%s: jobs=%d events identical" n1 jobs) e1 e2)
        seq par)
    [ 2; 4 ]

(* --- Determinism: campaign equivalence across --jobs ------------------------ *)

let campaign_digests ~jobs ~runs ~seed =
  let digests = Array.make runs "" in
  let c =
    Chaos.Fuzz.run
      ~progress:(fun i o -> digests.(i) <- o.Chaos.Runner.digest)
      ~jobs ~runs ~seed ()
  in
  (c, digests)

let test_campaign_jobs_equivalence () =
  let runs = 12 and seed = 42 in
  let c1, d1 = campaign_digests ~jobs:1 ~runs ~seed in
  checkb "sequential campaign green" true (Chaos.Fuzz.campaign_ok c1);
  List.iter
    (fun jobs ->
      let cn, dn = campaign_digests ~jobs ~runs ~seed in
      checki (Printf.sprintf "jobs=%d: runs" jobs) c1.Chaos.Fuzz.runs
        cn.Chaos.Fuzz.runs;
      checki (Printf.sprintf "jobs=%d: events_total" jobs)
        c1.Chaos.Fuzz.events_total cn.Chaos.Fuzz.events_total;
      checkb (Printf.sprintf "jobs=%d: same verdict" jobs)
        (Chaos.Fuzz.campaign_ok c1) (Chaos.Fuzz.campaign_ok cn);
      Array.iteri
        (fun i d ->
          checks (Printf.sprintf "jobs=%d: run %d digest" jobs i) d1.(i) d)
        dn)
    [ 2; 4 ]

let test_campaign_failures_identical_across_jobs () =
  (* Under a seeded product fault most schedules fail; the failure index
     set must not depend on domain count. *)
  Monitor.Faults.with_fault Monitor.Faults.no_fence (fun () ->
      let indexes c =
        List.map (fun f -> f.Chaos.Fuzz.index) c.Chaos.Fuzz.failures
      in
      let run jobs =
        Chaos.Fuzz.run ~progress:(fun _ _ -> ()) ~runs:5 ~seed:7 ~jobs ()
      in
      let c1 = run 1 in
      checkb "seeded fault produces failures" true
        (c1.Chaos.Fuzz.failures <> []);
      let c4 = run 4 in
      Alcotest.(check (list int))
        "failure indexes identical across jobs" (indexes c1) (indexes c4);
      checki "events_total identical" c1.Chaos.Fuzz.events_total
        c4.Chaos.Fuzz.events_total)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "results in index order" `Quick
            test_results_in_index_order;
          Alcotest.test_case "progress in index order" `Quick
            test_progress_in_index_order;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "lowest failed index re-raised" `Quick
            test_lowest_failed_index_reraised;
          Alcotest.test_case "progress stops before failure" `Quick
            test_progress_stops_before_failure;
          Alcotest.test_case "raising progress joins domains" `Quick
            test_raising_progress_joins_domains;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "corpus replay digest-invariant under 1/2/4 \
                              domains"
            `Slow test_corpus_replay_digest_invariant;
          Alcotest.test_case "campaign equivalent across --jobs" `Slow
            test_campaign_jobs_equivalence;
          Alcotest.test_case "failure set identical across --jobs" `Slow
            test_campaign_failures_identical_across_jobs;
        ] );
    ]

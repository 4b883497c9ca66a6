(* bench/trend_core: the best-so-far trajectory analysis behind
   bench/trend.exe — previously only exercised via CI. Covers best
   selection across a series, the noise floor (fast experiments gate on
   real doublings, not jitter), mixed schema v1/v2 snapshots, and the
   committed snapshot series CI gates on. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let parse s =
  match Monitor.Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad test snapshot: %s" e

let snap ?(schema = 2) exps =
  let body =
    String.concat ","
      (List.map
         (fun (id, wall) ->
           Printf.sprintf "{\"id\":\"%s\",\"wall_s\":%g,\"sim_events\":1}" id
             wall)
         exps)
  in
  parse
    (Printf.sprintf
       "{\"schema_version\":%d,\"quick\":true,\"experiments\":[%s]}" schema
       body)

let exps j =
  match Trend_core.experiments j with
  | Ok e -> e
  | Error m -> Alcotest.failf "experiments: %s" m

let vs_best (r : Trend_core.row) =
  match r.verdict with
  | Trend_core.Vs_best v -> v
  | _ -> Alcotest.failf "expected a vs-best verdict for %s" r.id

let row id rows =
  match List.find_opt (fun (r : Trend_core.row) -> r.id = id) rows with
  | Some r -> r
  | None -> Alcotest.failf "no row for %s" id

(* --- snapshot parsing ------------------------------------------------------- *)

let test_experiments_parsing () =
  let j = snap [ ("fig5a", 4.0); ("table1", 0.08) ] in
  Alcotest.(check (list (pair string (float 1e-9))))
    "id/wall pairs in order"
    [ ("fig5a", 4.0); ("table1", 0.08) ]
    (exps j);
  match Trend_core.experiments (parse "{\"quick\":true}") with
  | Ok _ -> Alcotest.fail "missing experiments array must be an error"
  | Error _ -> ()

(* --- best-so-far selection -------------------------------------------------- *)

let test_best_so_far () =
  (* Best is the minimum across *history* (1.0), not the adjacent
     snapshot (3.0): a creeping regression is judged against the best. *)
  let series =
    List.map exps
      [
        snap [ ("fig5a", 1.0) ];
        snap [ ("fig5a", 3.0) ];
        snap [ ("fig5a", 2.0) ];
      ]
  in
  let rows = Trend_core.analyze ~threshold:1.5 series in
  let v = vs_best (row "fig5a" rows) in
  checkf "best is the series minimum" 1.0 v.best;
  checkf "ratio vs best, not vs previous" 2.0 v.ratio;
  checkb "2x of best with headroom over the floor regresses" true v.regression;
  checki "regressions lists it" 1 (List.length (Trend_core.regressions rows));
  (* The newest snapshot itself never lowers its own bar. *)
  let rows =
    Trend_core.analyze ~threshold:1.5
      (List.map exps [ snap [ ("fig5a", 2.0) ]; snap [ ("fig5a", 1.0) ] ])
  in
  let v = vs_best (row "fig5a" rows) in
  checkb "improvement is not a regression" false v.regression;
  checkf "ratio below 1" 0.5 v.ratio

let test_new_and_gone () =
  let series =
    List.map exps [ snap [ ("old", 1.0) ]; snap [ ("fresh", 1.0) ] ]
  in
  let rows = Trend_core.analyze series in
  (match (row "fresh" rows).verdict with
  | Trend_core.New w -> checkf "new carries its wall time" 1.0 w
  | _ -> Alcotest.fail "fresh should be New");
  (match (row "old" rows).verdict with
  | Trend_core.Gone -> ()
  | _ -> Alcotest.fail "old should be Gone");
  checki "neither counts as a regression" 0
    (List.length (Trend_core.regressions rows));
  Alcotest.(check (list (option (float 1e-9))))
    "points keep per-snapshot holes"
    [ Some 1.0; None ]
    (row "old" rows).Trend_core.points

(* --- noise floor ------------------------------------------------------------ *)

let test_noise_floor () =
  checkf "slow experiments: 50ms absolute floor" 0.05 (Trend_core.noise_floor 4.0);
  checkf "fast experiments: relative floor" 0.03 (Trend_core.noise_floor 0.03);
  checkf "floor never below 10ms" 0.01 (Trend_core.noise_floor 0.001);
  (* 1.9x on a 10ms experiment is 9ms of drift — under the 10ms floor,
     so not a regression even though the ratio is past the threshold. *)
  let rows =
    Trend_core.analyze ~threshold:1.5
      (List.map exps [ snap [ ("tiny", 0.010) ]; snap [ ("tiny", 0.019) ] ])
  in
  let v = vs_best (row "tiny" rows) in
  checkb "ratio past threshold" true (v.ratio > 1.5);
  checkb "but under the noise floor: no regression" false v.regression;
  (* The same ratio on a slow experiment does regress. *)
  let rows =
    Trend_core.analyze ~threshold:1.5
      (List.map exps [ snap [ ("slow", 1.0) ]; snap [ ("slow", 3.0) ] ])
  in
  checkb "3x on a 1s experiment regresses" true (vs_best (row "slow" rows)).regression

(* --- mixed v1/v2 series ----------------------------------------------------- *)

let test_mixed_schema_series () =
  (* A v1 seed followed by v2 snapshots must analyze as one series:
     both schemas expose id/wall_s. *)
  let v1 = snap ~schema:1 [ ("fig5a", 4.0); ("table1", 0.08) ] in
  let v2a = snap ~schema:2 [ ("fig5a", 3.5); ("table1", 0.08); ("fig7", 1.0) ] in
  let v2b = snap ~schema:2 [ ("fig5a", 3.6); ("table1", 0.09); ("fig7", 9.0) ] in
  let rows = Trend_core.analyze ~threshold:1.5 (List.map exps [ v1; v2a; v2b ]) in
  checki "union of ids across schemas" 3 (List.length rows);
  let v = vs_best (row "fig5a" rows) in
  checkf "v1 wall times participate in best" 3.5 v.best;
  checkb "fig5a healthy" false v.regression;
  checkb "fig7 9x vs its v2 best regresses" true (vs_best (row "fig7" rows)).regression;
  checkb "10ms drift on table1 stays under the floor" false
    (vs_best (row "table1" rows)).regression;
  (* quick-flag mixing detection used by the CLI warning. *)
  checkb "uniform flags are not mixed" false
    (Trend_core.mixed_quick [ Some true; Some true; None ]);
  checkb "disagreeing flags are mixed" true
    (Trend_core.mixed_quick [ Some true; Some false ])

(* --- the committed CI series ------------------------------------------------ *)

let committed =
  [ "../bench/history/BENCH_pr3_seed_v1.json"; "../BENCH_seed.json"; "../BENCH_pr9.json" ]

let read_snapshot path =
  parse (In_channel.with_open_bin path In_channel.input_all)

let test_committed_series () =
  (* The three snapshots CI's trajectory gate reads (v1, v2, v2, all
     with a Bechamel micro row), then a v3 snapshot as
     `tensor-cli experiment --emit-bench` now writes it: no micro row, alloc_bytes_per_event. Each paper id
     sits at its best-so-far except fig5a at 10x, so the gate must flag
     exactly fig5a. *)
  let history = List.map (fun f -> exps (read_snapshot f)) committed in
  let best id =
    List.fold_left
      (fun acc e ->
        match List.assoc_opt id e with Some w -> Float.min acc w | None -> acc)
      Float.infinity history
  in
  let newest =
    parse
      (Printf.sprintf
         "{\"schema_version\":3,\"quick\":true,\"experiments\":[%s]}"
         (String.concat ","
            (List.map
               (fun id ->
                 Printf.sprintf
                   "{\"id\":\"%s\",\"wall_s\":%.6f,\"sim_events\":10,\"alloc_bytes_per_event\":2.5}"
                   id
                   (if id = "fig5a" then 10.0 *. best id else best id))
               Tensor.Experiments.ids)))
  in
  let rows = Trend_core.analyze ~threshold:1.5 (history @ [ exps newest ]) in
  (match (row "micro" rows).verdict with
  | Trend_core.Gone -> ()
  | _ -> Alcotest.fail "micro should be Gone");
  Alcotest.(check (list string))
    "only the seeded fig5a regression, never the Gone micro row" [ "fig5a" ]
    (List.map (fun (r : Trend_core.row) -> r.id) (Trend_core.regressions rows));
  List.iter
    (fun id -> ignore (vs_best (row id rows)))
    Tensor.Experiments.ids

let () =
  Alcotest.run "trend"
    [
      ( "core",
        [
          Alcotest.test_case "snapshot parsing" `Quick test_experiments_parsing;
          Alcotest.test_case "best-so-far selection" `Quick test_best_so_far;
          Alcotest.test_case "new and gone experiments" `Quick test_new_and_gone;
          Alcotest.test_case "noise floor" `Quick test_noise_floor;
          Alcotest.test_case "mixed v1/v2 series" `Quick test_mixed_schema_series;
          Alcotest.test_case "committed CI series, then v3 without micro" `Quick
            test_committed_series;
        ] );
    ]

(* The noise model, applied: compares two sets of runs (JSONL records
   written with --json) metric by metric against BENCHMARK.json.

   For each workload and end-to-end metric it prints both medians, the
   change, and each side's spread (interquartile distance over median,
   as Python's statistics.quantiles computes it). The verdict is:

   - "exact" / "MISMATCH" for deterministic metrics, which must agree
     run for run at equal seeds;
   - "unresolved" where either spread is wider than the metric's bound
     (unless every run of B beats every run of A), because such a set
     cannot tell a change within the bound from noise;
   - "REGRESSED" where B's median is worse than A's by more than the
     bound, "ok" otherwise.

   The simulated outputs, digests and registry counts of equal-seed runs
   must match exactly too. The exit code is 0 only when every verdict is
   "ok" or "exact". *)

module J = Monitor.Json

(* Deterministic metrics and their tolerance between equal-seed runs.
   The first round's peak heap repeats exactly. Allocation repeats to
   within 0.1%: a few rounds of chaos and fleet allocate up to 0.3% less
   than the others, so the median over a run moves slightly with the
   number of rounds. *)
let deterministic = [ ("alloc_mb_per_round", 1e-3); ("peak_heap_mb", 0.) ]

type record = {
  workload : string;
  seed : int;
  metrics : (string * float) list;
  exact : (string * string) list;
}

let str k j = Option.bind (J.member k j) J.to_str
let obj k j = match J.member k j with Some (J.Obj l) -> l | _ -> []

let read_records path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun l ->
         let j = J.parse_exn l in
         if Option.bind (J.member "trace" j) J.to_bool = Some true then None
         else
           Some
             {
               workload = Option.value ~default:"" (str "workload" j);
               seed = Option.value ~default:0 (Option.bind (J.member "seed" j) J.to_int);
               metrics =
                 List.filter_map
                   (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (J.member "value" v) J.to_float))
                   (obj "metrics" j);
               exact =
                 List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (J.to_str v)) (obj "exact" j);
             })

let bench_metrics path =
  let j = J.parse_exn (In_channel.with_open_text path In_channel.input_all) in
  Option.value ~default:[] (Option.bind (J.member "end_to_end" j) J.to_list)
  |> List.filter_map (fun e ->
         match (str "name" e, str "better" e, Option.bind (J.member "bound" e) J.to_float) with
         | Some n, Some b, Some bound -> Some (n, b = "lower", bound)
         | _ -> None)

let values rs w name =
  List.filter_map
    (fun r -> if r.workload = w then List.assoc_opt name r.metrics else None)
    rs

(* Pairs of equal-seed records, one from each side. *)
let seed_pairs a b w =
  List.filter_map
    (fun ra ->
      if ra.workload <> w then None
      else
        List.find_opt (fun rb -> rb.workload = w && rb.seed = ra.seed) b
        |> Option.map (fun rb -> (ra, rb)))
    a

let compare_workload ~bench a b w =
  let pairs = seed_pairs a b w in
  let rows =
    List.map
      (fun (name, lower, bound) ->
        let va = values a w name and vb = values b w name in
        let ma = Stats.median va and mb = Stats.median vb in
        let sa = Stats.spread va and sb = Stats.spread vb in
        let change = (mb -. ma) /. ma in
        let worse = if lower then change else -.change in
        let verdict =
          match List.assoc_opt name deterministic with
          | Some tol ->
              let same (ra, rb) =
                match (List.assoc_opt name ra.metrics, List.assoc_opt name rb.metrics) with
                | Some x, Some y -> Float.abs (x -. y) <= tol *. Float.abs x
                | _ -> false
              in
              if pairs <> [] && List.for_all same pairs then "exact" else "MISMATCH"
          | None ->
              let all_better =
                va <> [] && vb <> []
                &&
                if lower then List.fold_left max neg_infinity vb < List.fold_left min infinity va
                else List.fold_left min infinity vb > List.fold_left max neg_infinity va
              in
              if not (Float.is_finite sa && Float.is_finite sb) then "unresolved"
              else if Float.max sa sb > bound then if all_better then "ok" else "unresolved"
              else if worse > bound then "REGRESSED"
              else "ok"
        in
        Printf.printf "%-10s %-20s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% %6.2f%%  %s\n" w name ma mb
          (100. *. change) (100. *. sa) (100. *. sb) (100. *. bound) verdict;
        verdict)
      bench
  in
  let exact_ok =
    List.for_all
      (fun (ra, rb) ->
        let same = List.sort compare ra.exact = List.sort compare rb.exact in
        if not same then
          Printf.printf "%-10s seed %d: simulated outputs differ between the sets  MISMATCH\n" w ra.seed;
        same)
      pairs
  in
  exact_ok && List.for_all (fun v -> v = "ok" || v = "exact") rows

let main args =
  let bench_path, a_path, b_path =
    match args with
    | [ a; b ] -> ("BENCHMARK.json", a, b)
    | [ a; b; "--bench"; p ] | [ "--bench"; p; a; b ] -> (p, a, b)
    | _ ->
        prerr_endline "usage: suite.exe agree A.jsonl B.jsonl [--bench BENCHMARK.json]";
        exit 2
  in
  let bench = bench_metrics bench_path in
  let a = read_records a_path and b = read_records b_path in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b))
  in
  Printf.printf "%-10s %-20s %14s %14s %9s %8s %8s %7s  %s\n" "workload" "metric" "median A"
    "median B" "change" "spreadA" "spreadB" "bound" "verdict";
  let ok =
    List.fold_left
      (fun ok w ->
        let present = List.exists (fun r -> r.workload = w) in
        if not (present a && present b) then begin
          Printf.printf "%-10s only in one set  MISMATCH\n" w;
          false
        end
        else compare_workload ~bench a b w && ok)
      true workloads
  in
  if ok then 0 else 1

(* The pure core of trend.exe: best-so-far trajectory analysis over a
   series of --emit-bench snapshots, separated from file IO / printing
   so it can be unit-tested. *)

(* Noise floor: 50 ms absolute, relative below it.
   A regression must clear both the ratio threshold and this floor, so
   microsecond-scale experiments gate on real doublings, not jitter. *)
let noise_floor best = if best >= 0.05 then 0.05 else Float.max 0.01 best

(* (id, [field]) rows of one snapshot. *)
let rows_of field j =
  match
    Option.bind (Monitor.Json.member "experiments" j) Monitor.Json.to_list
  with
  | None -> Error "snapshot has no \"experiments\" array"
  | Some l ->
      Ok
        (List.filter_map
           (fun e ->
             match
               ( Option.bind (Monitor.Json.member "id" e) Monitor.Json.to_str,
                 Option.bind (Monitor.Json.member field e) Monitor.Json.to_float )
             with
             | Some id, Some v -> Some (id, v)
             | _ -> None)
           l)

(* (id, wall_s) rows of one snapshot. Reads only fields common to
   schema v1 and v2, so mixed series parse uniformly. *)
let experiments j = rows_of "wall_s" j

(* (id, alloc_bytes) rows of one snapshot, from schema v3 on: v3 counts
   every allocated byte (older snapshots undercount young allocation,
   so they are no baseline) and has none for the older schemas. *)
let allocations j =
  match Option.bind (Monitor.Json.member "schema_version" j) Monitor.Json.to_float with
  | Some v when v >= 3. -> rows_of "alloc_bytes" j
  | Some _ | None -> Ok []

(* Union of experiment ids across snapshots, in first-seen order. *)
let ids_union series =
  List.fold_left
    (fun acc exps ->
      List.fold_left
        (fun acc (id, _) -> if List.mem id acc then acc else acc @ [ id ])
        acc exps)
    [] series

type comparison = { best : float; now : float; ratio : float; regression : bool }

type verdict =
  | New of float (* first appearance: newest has it, history doesn't *)
  | Gone (* history has it, newest doesn't *)
  | Vs_best of comparison

type row = {
  id : string;
  points : float option list; (* one per snapshot, oldest first *)
  verdict : verdict;
}

let ratio ~best now = if best > 1e-9 then now /. best else Float.infinity

(* [series] is oldest..newest; the last snapshot is compared against the
   minimum any earlier snapshot recorded, and [regressed ~best now]
   judges it. Requires >= 2 snapshots. *)
let trajectory ~regressed series =
  if List.length series < 2 then
    invalid_arg "Trend_core.analyze: need at least two snapshots";
  let newest = List.nth series (List.length series - 1) in
  let history = List.filteri (fun i _ -> i < List.length series - 1) series in
  List.map
    (fun id ->
      let points = List.map (List.assoc_opt id) series in
      let best =
        List.fold_left
          (fun acc exps ->
            match List.assoc_opt id exps with
            | Some w -> (
                match acc with
                | None -> Some w
                | Some b -> Some (Float.min b w))
            | None -> acc)
          None history
      in
      let verdict =
        match (best, List.assoc_opt id newest) with
        | Some best, Some now ->
            Vs_best { best; now; ratio = ratio ~best now; regression = regressed ~best now }
        | None, Some now -> New now
        | _, None -> Gone
      in
      { id; points; verdict })
    (ids_union series)

(* Wall time: past [threshold] x best-so-far and the noise floor. *)
let analyze ?(threshold = 1.5) series =
  trajectory series ~regressed:(fun ~best now ->
      ratio ~best now > threshold && now -. best > noise_floor best)

(* Allocation is exact and deterministic for a fixed program, so its
   gate is tight: more than 2% over the best-so-far fails. *)
let alloc_threshold = 1.02

let analyze_alloc series =
  trajectory series ~regressed:(fun ~best now -> now > alloc_threshold *. best)

let regressions rows =
  List.filter
    (fun r ->
      match r.verdict with Vs_best { regression; _ } -> regression | _ -> false)
    rows

(* "quick" flags across snapshots disagree: ratios compare different
   workloads and are not meaningful. *)
let mixed_quick flags =
  match List.filter_map Fun.id flags with
  | [] -> false
  | q0 :: rest -> List.exists (fun q -> q <> q0) rest

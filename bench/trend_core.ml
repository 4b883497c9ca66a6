(* The pure core of trend.exe: best-so-far trajectory analysis over a
   series of --emit-bench snapshots, separated from file IO / printing
   so it can be unit-tested. *)

(* Noise floor: 50 ms absolute, relative below it.
   A regression must clear both the ratio threshold and this floor, so
   microsecond-scale experiments gate on real doublings, not jitter. *)
let noise_floor best = if best >= 0.05 then 0.05 else Float.max 0.01 best

(* (id, wall_s) rows of one snapshot. Reads only fields common to
   schema v1 and v2, so mixed series parse uniformly. *)
let experiments j =
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
                 Option.bind
                   (Monitor.Json.member "wall_s" e)
                   Monitor.Json.to_float )
             with
             | Some id, Some wall -> Some (id, wall)
             | _ -> None)
           l)

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

(* [series] is oldest..newest; the last snapshot is gated against the
   minimum wall time any earlier snapshot achieved. Requires >= 2
   snapshots. *)
let analyze ?(threshold = 1.5) series =
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
            let ratio = if best > 1e-9 then now /. best else Float.infinity in
            let regression =
              ratio > threshold && now -. best > noise_floor best
            in
            Vs_best { best; now; ratio; regression }
        | None, Some now -> New now
        | _, None -> Gone
      in
      { id; points; verdict })
    (ids_union series)

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

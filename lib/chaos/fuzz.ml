type failure = {
  index : int;
  outcome : Runner.outcome;
  shrunk : Shrink.result option;
  saved : string option;
}

type campaign = {
  runs : int;
  seed : int;
  failures : failure list;
  events_total : int;
  pool : Par.Pool.stats;
}

let campaign_ok c = c.failures = []

(* Each run is self-contained (generate → run → shrink all derive from
   [(seed, i)] alone and every library keeps its mutable state
   domain-local), so the campaign fans runs out across domains and
   merges in index order. Only corpus writes stay on the calling
   domain, ordered by index, so the saved-file set and the campaign
   record are byte-identical from --jobs 1 to --jobs N. *)
let run ~progress ?shrink_to ?(jobs = 1) ~runs ~seed () =
  let task i =
    let d = Descriptor.generate ~seed:(Descriptor.sub_seed ~seed i) in
    let o = Runner.run d in
    let shrunk =
      if Option.is_some shrink_to && not (Runner.ok o) then Shrink.minimize d
      else None
    in
    (o, shrunk)
  in
  let progress i (o, _) = progress i o in
  let results, pool = Par.Pool.run ~jobs ~progress runs task in
  let failures = ref [] in
  let events_total = ref 0 in
  Array.iteri
    (fun i (o, shrunk) ->
      events_total := !events_total + o.Runner.events;
      if not (Runner.ok o) then begin
        let saved =
          match (shrunk, shrink_to) with
          | Some r, Some dir ->
              let comment =
                Printf.sprintf
                  "shrunk repro: campaign seed %d run %d (%d faults removed)"
                  seed i r.Shrink.removed_faults
              in
              Some (Corpus.save ~dir ~comment r.Shrink.minimal)
          | _ -> None
        in
        failures := { index = i; outcome = o; shrunk; saved } :: !failures
      end)
    results;
  {
    runs;
    seed;
    failures = List.rev !failures;
    events_total = !events_total;
    pool;
  }

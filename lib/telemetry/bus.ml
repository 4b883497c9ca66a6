type entry = { seq : int; at : Sim.Time.t; event : Event.t }

type ring = {
  mutable arr : entry array; (* [||] until first emit *)
  mutable start : int; (* index of oldest entry *)
  mutable len : int;
  mutable total : int;
}

(* Live subscribers: invoked synchronously from [emit], after the ring
   push, so callbacks observe entries in global-seq order. *)
type sub = { id : int; fn : entry -> unit }

let ncats = List.length Event.categories

(* The whole bus is domain-local: rings, the sequence counter, capacity
   settings and subscriber lists. Each domain of a parallel campaign
   records its runs into a private bus whose [seq] starts at 0 exactly
   like a fresh process, which is what keeps per-run telemetry digests
   independent of how runs are spread across domains. *)
type state = {
  mutable capacity : int;
  mutable seq_counter : int;
  rings : ring array;
  mutable sub_counter : int;
  mutable subs : sub list;
  (* Overflow observability: overwrites are counted in the registry
     (the ring's own [total - len] resets with [clear], the counter
     survives a run) and each category keeps a high-water occupancy
     gauge, so a ring sized too small for a scenario is visible instead
     of silently eating the oldest events. Fetched on first overflow /
     first emit: a domain that never emits never grows its metric
     listing. (These were process-level [lazy] cells before the bus
     went domain-local; concurrent forcing of a shared lazy is a race,
     cached registry lookups are not.) *)
  mutable dropped_counter : Registry.counter option;
  mutable hwm_gauges : Registry.gauge array; (* [||] until first emit *)
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        capacity = 8192;
        seq_counter = 0;
        rings =
          Array.init ncats (fun _ ->
              { arr = [||]; start = 0; len = 0; total = 0 });
        sub_counter = 0;
        subs = [];
        dropped_counter = None;
        hwm_gauges = [||];
      })

let state () = Domain.DLS.get key

(* The category's position in [Event.categories], walked without a
   closure: [emit] looks it up once per event. *)
let rec index_from c i = function
  | [] -> 0
  | c' :: rest -> if c' = c then i else index_from c (i + 1) rest

let cat_index c = index_from c 0 Event.categories

let subscribe fn =
  let st = state () in
  st.sub_counter <- st.sub_counter + 1;
  let s = { id = st.sub_counter; fn } in
  (* lint: allow h1 — once per subscription, not per entry *)
  st.subs <- st.subs @ [ s ];
  s

let unsubscribe s =
  let st = state () in
  (* lint: allow h1 — once per subscription, not per entry *)
  st.subs <- List.filter (fun s' -> s'.id <> s.id) st.subs

let subscriber_count () = List.length (state ()).subs

let dropped_counter st =
  match st.dropped_counter with
  | Some c -> c
  | None ->
      let c = Registry.counter "telemetry.bus_dropped" in
      st.dropped_counter <- Some c;
      c

let hwm_gauges st =
  if Array.length st.hwm_gauges = 0 then
    st.hwm_gauges <-
      Array.of_list
        (List.map
           (fun c ->
             Registry.gauge ("telemetry.ring_hwm." ^ Event.category_name c))
           Event.categories);
  st.hwm_gauges

(* Returns [true] when the push overwrote the oldest entry. The ring's
   array is sized on first push from the category's effective capacity;
   capacity changes clear the ring so the next push resizes. *)
let push r ~cap:want e =
  if Array.length r.arr = 0 then r.arr <- Array.make want e;
  let cap = Array.length r.arr in
  r.total <- r.total + 1;
  if r.len < cap then begin
    r.arr.((r.start + r.len) mod cap) <- e;
    r.len <- r.len + 1;
    false
  end
  else begin
    r.arr.(r.start) <- e;
    r.start <- (r.start + 1) mod cap;
    true
  end

let emit eng event =
  if Gate.on () then begin
    let st = state () in
    st.seq_counter <- st.seq_counter + 1;
    let ci = cat_index (Event.category event) in
    let e = { seq = st.seq_counter; at = Sim.Engine.now eng; event } in
    let r = st.rings.(ci) in
    if push r ~cap:st.capacity e then Registry.incr (dropped_counter st);
    Registry.set_max_int (hwm_gauges st).(ci) r.len;
    List.iter (fun s -> s.fn e) st.subs
  end

let ring_entries r =
  List.init r.len (fun i -> r.arr.((r.start + i) mod Array.length r.arr))

let events () =
  Array.to_list (state ()).rings
  |> List.concat_map ring_entries
  |> List.sort (fun a b -> Int.compare a.seq b.seq)

let dropped_total () =
  Array.fold_left (fun acc r -> acc + (r.total - r.len)) 0 (state ()).rings

(* [clear] drops buffered entries but keeps subscribers: monitors
   installed across a [Control.reset] keep observing the next run. *)
let clear () =
  let st = state () in
  Array.iter
    (fun r ->
      r.arr <- [||];
      r.start <- 0;
      r.len <- 0;
      r.total <- 0)
    st.rings;
  st.seq_counter <- 0

let set_capacity n =
  if n <= 0 then invalid_arg "Bus.set_capacity: capacity must be positive";
  let st = state () in
  st.capacity <- n;
  clear ()

let to_jsonl buf =
  List.iter
    (fun e ->
      let body = Event.to_json e.event in
      (* body = {"cat":...}; splice seq/time in front. *)
      Buffer.add_string buf
        (Printf.sprintf "{\"seq\":%d,\"t_ns\":%d,%s\n" e.seq e.at
           (String.sub body 1 (String.length body - 1))))
    (events ())

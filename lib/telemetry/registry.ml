(* A handle is a [Domain.DLS] key made at registration: each domain
   bumps and reads its own value, like the bus log. *)
type counter = int ref Domain.DLS.key

(* A one-slot float array, not a [float ref]: the ref would box every
   [set] on a hot path (netfilter queue depth and its high-water mark).
   Float arrays store unboxed, and so does storing [float_of_int v]. *)
type gauge = float array Domain.DLS.key

(* Bucket 0 holds non-positive observations; bucket i >= 1 covers
   [2^(min_e+i-2), 2^(min_e+i-1)), i.e. has exclusive upper bound
   2^(min_e+i-1). min_e = -30 puts the finest bound at ~1 ns when
   observations are in seconds. *)
let min_e = -30
let max_e = 33
let nbuckets = max_e - min_e + 2

(* The sum sits in a one-cell float array for the gauge's reason. *)
type hist = { counts : int array; mutable n : int; sum : float array }
type histogram = hist Domain.DLS.key

type metric =
  | Counter of string * counter
  | Gauge of string * gauge
  | Histogram of string * histogram

(* Names and kinds are process-wide, in registration order, so a metric
   registered at module initialisation is known to every domain.
   Lookups get-or-create from any domain under [lock]. *)
type table = { by_name : (string, metric) Hashtbl.t; mutable rev_order : metric list }

(* lint: allow d4 — names only, written under [lock]; every value is domain-local *)
let table = { by_name = Hashtbl.create 64; rev_order = [] }
let lock = Mutex.create ()

(* The registering domain's cell is made at once: no first-bump allocation. *)
let cell init =
  let k = Domain.DLS.new_key init in
  ignore (Domain.DLS.get k);
  k

let zero_counter () = ref 0
let zero_gauge () = [| 0.0 |]
let zero_hist () = { counts = Array.make nbuckets 0; n = 0; sum = [| 0.0 |] }

let register name kind =
  Mutex.lock lock;
  let m =
    match Hashtbl.find_opt table.by_name name with
    | Some m -> m
    | None ->
        let m =
          match kind with
          | `Counter -> Counter (name, cell zero_counter)
          | `Gauge -> Gauge (name, cell zero_gauge)
          | `Histogram -> Histogram (name, cell zero_hist)
        in
        Hashtbl.replace table.by_name name m;
        table.rev_order <- m :: table.rev_order;
        m
  in
  Mutex.unlock lock;
  m

let kind_error name =
  invalid_arg
    (Printf.sprintf "Telemetry.Registry: %S already registered as another kind"
       name)

let counter name =
  match register name `Counter with
  | Counter (_, c) -> c
  | Gauge _ | Histogram _ -> kind_error name

let incr c = let r = Domain.DLS.get c in r := !r + 1
let add c n = let r = Domain.DLS.get c in r := !r + n
let value c = !(Domain.DLS.get c)

let gauge name =
  match register name `Gauge with
  | Gauge (_, g) -> g
  | Counter _ | Histogram _ -> kind_error name

let set_int g v = (Domain.DLS.get g).(0) <- float_of_int v

let set_max_int g v =
  let cell = Domain.DLS.get g in
  let v = float_of_int v in
  if v > cell.(0) then cell.(0) <- v

let gauge_value g = (Domain.DLS.get g).(0)

let histogram name =
  match register name `Histogram with
  | Histogram (_, h) -> h
  | Counter _ | Gauge _ -> kind_error name

(* [Float.frexp]'s exponent [e], with [v] in [2^(e-1), 2^e), read off
   the IEEE 754 bits instead of its (float, int) tuple: the biased
   exponent minus 1022. Subnormals read -1022 and +infinity reads 1025,
   so both clamp to their extreme bucket. NaN fails [v > 0.] and joins
   the non-positive values. *)
let bucket_index v =
  if not (v > 0.0) then 0
  else
    let e =
      Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52)
      - 1022
    in
    let e = if e < min_e then min_e else if e > max_e then max_e else e in
    e - min_e + 1

let bucket_bound i =
  if i = 0 then 0.0 else Float.ldexp 1.0 (min_e + i - 1)

let observe h v =
  let h = Domain.DLS.get h in
  let i = bucket_index v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum.(0) <- h.sum.(0) +. v

let hist_count h = (Domain.DLS.get h).n
let hist_sum h = (Domain.DLS.get h).sum.(0)

let buckets h =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.counts.(i) > 0 then acc := (bucket_bound i, h.counts.(i)) :: !acc
  done;
  !acc

let all () = Mutex.protect lock (fun () -> List.rev table.rev_order)

let reset_values () =
  List.iter
    (function
      | Counter (_, c) -> Domain.DLS.get c := 0
      | Gauge (_, g) -> (Domain.DLS.get g).(0) <- 0.0
      | Histogram (_, h) ->
          let h = Domain.DLS.get h in
          Array.fill h.counts 0 nbuckets 0;
          h.n <- 0;
          h.sum.(0) <- 0.0)
    (all ())

let to_json () =
  let metric_json = function
    | Counter (n, c) ->
        Printf.sprintf "{\"name\":\"%s\",\"kind\":\"counter\",\"value\":%d}"
          (Event.json_escape n) (value c)
    | Gauge (n, g) ->
        Printf.sprintf "{\"name\":\"%s\",\"kind\":\"gauge\",\"value\":%s}"
          (Event.json_escape n) (Event.json_float (gauge_value g))
    | Histogram (n, h) ->
        let h = Domain.DLS.get h in
        Printf.sprintf
          "{\"name\":\"%s\",\"kind\":\"histogram\",\"count\":%d,\"sum\":%s,\"buckets\":[%s]}"
          (Event.json_escape n) h.n (Event.json_float h.sum.(0))
          (String.concat ","
             (List.map
                (fun (ub, c) ->
                  Printf.sprintf "[%s,%d]" (Event.json_float ub) c)
                (buckets h)))
  in
  "{\"metrics\":["
  ^ String.concat "," (List.map metric_json (all ()))
  ^ "]}"

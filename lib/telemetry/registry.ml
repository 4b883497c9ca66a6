type counter = { mutable c : int }

(* The value lives in a one-slot float array, not a [mutable g : float]
   field: in a mixed string/float record the float field is boxed, so
   every [set] on a hot path (netfilter queue depth and its
   high-water mark) allocated a fresh box. Float arrays store unboxed, and
   storing [float_of_int v] into one compiles without boxing either. *)
type gauge = { gcell : float array }

(* Bucket 0 holds non-positive observations; bucket i >= 1 covers
   [2^(min_e+i-2), 2^(min_e+i-1)), i.e. has exclusive upper bound
   2^(min_e+i-1). min_e = -30 puts the finest bound at ~1 ns when
   observations are in seconds. *)
let min_e = -30
let max_e = 33
let nbuckets = max_e - min_e + 2

(* The sum sits in a one-cell float array for the gauge's reason. *)
type histogram = { counts : int array; mutable n : int; sum : float array }

type metric =
  | Counter of string * counter
  | Gauge of string * gauge
  | Histogram of string * histogram

(* Registrations are domain-local: each domain of a parallel campaign
   grows its own registry from scratch, so two domains creating
   "tensor.failovers" concurrently each get a private cell instead of
   racing on one table. Within a domain the old global behaviour is
   unchanged (idempotent creation by name, registration order kept). *)
type state = {
  by_name : (string, metric) Hashtbl.t;
  mutable rev_order : metric list;
}

let key =
  Domain.DLS.new_key (fun () ->
      { by_name = Hashtbl.create 64; rev_order = [] })

let state () = Domain.DLS.get key

let register name m =
  let st = state () in
  Hashtbl.replace st.by_name name m;
  st.rev_order <- m :: st.rev_order

let kind_error name =
  invalid_arg
    (Printf.sprintf "Telemetry.Registry: %S already registered as another kind"
       name)

let counter name =
  match Hashtbl.find_opt (state ()).by_name name with
  | Some (Counter (_, c)) -> c
  | Some _ -> kind_error name
  | None ->
      let c = { c = 0 } in
      register name (Counter (name, c));
      c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let gauge name =
  match Hashtbl.find_opt (state ()).by_name name with
  | Some (Gauge (_, g)) -> g
  | Some _ -> kind_error name
  | None ->
      let g = { gcell = [| 0.0 |] } in
      register name (Gauge (name, g));
      g

let set_int g v = g.gcell.(0) <- float_of_int v

let set_max_int g v =
  let v = float_of_int v in
  if v > g.gcell.(0) then g.gcell.(0) <- v

let gauge_value g = g.gcell.(0)

let histogram name =
  match Hashtbl.find_opt (state ()).by_name name with
  | Some (Histogram (_, h)) -> h
  | Some _ -> kind_error name
  | None ->
      let h = { counts = Array.make nbuckets 0; n = 0; sum = [| 0.0 |] } in
      register name (Histogram (name, h));
      h

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
  let i = bucket_index v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum.(0) <- h.sum.(0) +. v

let hist_count h = h.n
let hist_sum h = h.sum.(0)
let buckets h =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.counts.(i) > 0 then acc := (bucket_bound i, h.counts.(i)) :: !acc
  done;
  !acc

let all () = List.rev (state ()).rev_order

let reset_values () =
  List.iter
    (function
      | Counter (_, c) -> c.c <- 0
      | Gauge (_, g) -> g.gcell.(0) <- 0.0
      | Histogram (_, h) ->
          Array.fill h.counts 0 nbuckets 0;
          h.n <- 0;
          h.sum.(0) <- 0.0)
    (all ())

let to_json () =
  let metric_json = function
    | Counter (n, c) ->
        Printf.sprintf "{\"name\":\"%s\",\"kind\":\"counter\",\"value\":%d}"
          (Event.json_escape n) c.c
    | Gauge (n, g) ->
        Printf.sprintf "{\"name\":\"%s\",\"kind\":\"gauge\",\"value\":%s}"
          (Event.json_escape n) (Event.json_float g.gcell.(0))
    | Histogram (n, h) ->
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

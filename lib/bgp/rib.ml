type source = {
  key : string;
  peer_asn : int;
  peer_addr : Netsim.Addr.t;
  router_id : Netsim.Addr.t;
  ebgp : bool;
}

type path = { source : source; attrs : Attrs.t; stale : bool }

type change =
  | Best_changed of Netsim.Addr.prefix * path
  | Best_withdrawn of Netsim.Addr.prefix

let m_rib_changes = Telemetry.Registry.counter "bgp.rib_changes"
let m_rib_withdrawals = Telemetry.Registry.counter "bgp.rib_withdrawals"

type entry = { mutable paths : path list; mutable best : path option }

(* One int, no tuple: the length (at most 32) takes the low 6 bits. *)
let prefix_hash (p : Netsim.Addr.prefix) =
  Netsim.Addr.hash_int ((Netsim.Addr.to_int p.base lsl 6) lor p.len)

module PrefixTbl = Hashtbl.Make (struct
  type t = Netsim.Addr.prefix

  let equal = Netsim.Addr.equal_prefix
  let hash = prefix_hash
end)

type t = { table : entry PrefixTbl.t; mutable npaths : int }

let create () = { table = PrefixTbl.create 1024; npaths = 0 }

let local_pref_of p = match p.attrs.Attrs.local_pref with Some lp -> lp | None -> 100

let neighbor_as p =
  match p.attrs.Attrs.as_path with
  | Attrs.Seq (asn :: _) :: _ -> Some asn
  | _ -> None

(* Top-level, not local to [better]: these run once per path comparison
   inside every best-path fold. *)
let med_of p = match p.attrs.Attrs.med with Some m -> m | None -> 0
let ebgp_rank p = if p.source.ebgp then 0 else 1

(* RFC 4271 §9.1.2.2, as a strict "a preferred over b" relation. *)
let better a b =
  let cmp =
    let c = Int.compare (local_pref_of b) (local_pref_of a) in
    if c <> 0 then c
    else
      let c =
        Int.compare (Attrs.as_path_length a.attrs) (Attrs.as_path_length b.attrs)
      in
      if c <> 0 then c
      else
        let c =
          Int.compare
            (Attrs.origin_rank a.attrs.Attrs.origin)
            (Attrs.origin_rank b.attrs.Attrs.origin)
        in
        if c <> 0 then c
        else
          let med_cmp =
            (* MED comparable only between paths from the same
               neighbouring AS; missing MED is best (0). *)
            match (neighbor_as a, neighbor_as b) with
            | Some na, Some nb when na = nb ->
                Int.compare (med_of a) (med_of b)
            | _ -> 0
          in
          if med_cmp <> 0 then med_cmp
          else
            let c = Int.compare (ebgp_rank a) (ebgp_rank b) in
            if c <> 0 then c
            else
              let c =
                Netsim.Addr.compare a.source.router_id b.source.router_id
              in
              if c <> 0 then c
              else Netsim.Addr.compare a.source.peer_addr b.source.peer_addr
  in
  cmp < 0

(* Top-level for the same reason as [med_of]: the fold runs once per
   path of every recompute (h1 budget). *)
let pick_better acc p = if better p acc then p else acc

let select_best paths =
  match paths with
  | [] -> None
  | first :: rest -> Some (List.fold_left pick_better first rest)

let same_best a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
      String.equal x.source.key y.source.key && Attrs.equal x.attrs y.attrs
  | _ -> false

let entry_of t prefix =
  match PrefixTbl.find_opt t.table prefix with
  | Some e -> e
  | None ->
      let e = { paths = []; best = None } in
      PrefixTbl.replace t.table prefix e;
      e

let recompute t prefix entry =
  let old_best = entry.best in
  let new_best = select_best entry.paths in
  entry.best <- new_best;
  if entry.paths = [] then PrefixTbl.remove t.table prefix;
  if same_best old_best new_best then None
  else
    match new_best with
    | Some p ->
        Telemetry.Registry.incr m_rib_changes;
        Some (Best_changed (prefix, p))
    | None ->
        Telemetry.Registry.incr m_rib_withdrawals;
        Some (Best_withdrawn prefix)

(* Remove the paths held by [key], sharing the unchanged suffix and
   returning the input list itself when the key is absent — the common
   case for a fresh announcement, where [List.filter] would have built
   a closure and copied the whole list for nothing (h1 budget). *)
let rec remove_key key = function
  | [] -> []
  | p :: rest as l ->
      if String.equal p.source.key key then remove_key key rest
      else
        let rest' = remove_key key rest in
        if rest' == rest then l else p :: rest'

let update t source prefix attrs =
  let entry = entry_of t prefix in
  let without = remove_key source.key entry.paths in
  let had = without != entry.paths in
  (match attrs with
  | Some attrs ->
      entry.paths <- { source; attrs; stale = false } :: without;
      if not had then t.npaths <- t.npaths + 1
  | None ->
      entry.paths <- without;
      if had then t.npaths <- t.npaths - 1);
  recompute t prefix entry

let best t prefix =
  match PrefixTbl.find_opt t.table prefix with
  | Some e -> e.best
  | None -> None

let candidates t prefix =
  match PrefixTbl.find_opt t.table prefix with
  | None -> []
  | Some e -> List.sort (fun a b -> if better a b then -1 else 1) e.paths

let size t = PrefixTbl.length t.table
let path_count t = t.npaths

(* Every whole-table traversal goes through [sorted_entries]: ascending
   prefix order, so adj-out update batches, digests, and telemetry are
   independent of the table's insertion history (lint pass d1). *)
let collect_entry prefix e acc = (prefix, e) :: acc
let cmp_entry (a, _) (b, _) = Netsim.Addr.compare_prefix a b

let sorted_entries t =
  (* lint: allow d1 — the RIB's single collect-then-sort point; all other traversals use it *)
  List.sort cmp_entry (PrefixTbl.fold collect_entry t.table [])

let fold_best t ~init ~f =
  List.fold_left
    (fun acc (prefix, e) ->
      match e.best with Some p -> f acc prefix p | None -> acc)
    init (sorted_entries t)

let best_prefixes ?source_key t =
  fold_best t ~init:[] ~f:(fun acc prefix path ->
      match source_key with
      | Some k when not (String.equal path.source.key k) -> acc
      | _ -> Netsim.Addr.prefix_to_string prefix :: acc)
  |> List.sort String.compare

(* FNV-1a over the sorted best-path prefix strings: a cheap
   order-insensitive fingerprint for comparing two tables' coverage
   (attributes deliberately excluded — AS paths legitimately differ
   between the advertising and the learning side). *)
let fnv_prime = 0x100000001b3L
let fnv_mix h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) fnv_prime

let rec fnv_string h s i =
  if i >= String.length s then h
  else fnv_string (fnv_mix h (Char.code (String.unsafe_get s i))) s (i + 1)

let rec fnv_lines h = function
  | [] -> h
  | p :: rest -> fnv_lines (fnv_mix (fnv_string h p 0) (Char.code '\n')) rest

let hex_digits = "0123456789abcdef"

(* [%016Lx] without the Printf machinery (h1 budget). *)
let hex16 v =
  let out = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble =
      Int64.to_int (Int64.shift_right_logical v ((15 - i) * 4)) land 0xF
    in
    Bytes.unsafe_set out i (String.unsafe_get hex_digits nibble)
  done;
  Bytes.unsafe_to_string out

let digest ?source_key t =
  hex16 (fnv_lines 0xcbf29ce484222325L (best_prefixes ?source_key t))

let transform_source t ~key ~f =
  (* Apply [f] to each (prefix, entry) holding a path from [key], in
     ascending prefix order; collect best-path changes. *)
  let touched =
    List.filter
      (fun (_, e) ->
        List.exists (fun p -> String.equal p.source.key key) e.paths)
      (sorted_entries t)
  in
  List.filter_map (fun (prefix, e) -> f prefix e) touched

let remove_source t ~key =
  transform_source t ~key ~f:(fun prefix e ->
      let before = List.length e.paths in
      e.paths <-
        List.filter (fun p -> not (String.equal p.source.key key)) e.paths;
      t.npaths <- t.npaths - (before - List.length e.paths);
      recompute t prefix e)

let mark_source_stale t ~key =
  let marked = ref 0 in
  List.iter
    (fun (_, e) ->
      e.paths <-
        List.map
          (fun p ->
            if String.equal p.source.key key && not p.stale then begin
              incr marked;
              { p with stale = true }
            end
            else p)
          e.paths;
      (* The best pointer may reference a replaced record; refresh it
         without reporting a change (attrs are unchanged). *)
      e.best <- select_best e.paths)
    (sorted_entries t);
  !marked

let sweep_stale t ~key =
  transform_source t ~key ~f:(fun prefix e ->
      let before = List.length e.paths in
      e.paths <-
        List.filter
          (fun p -> not (String.equal p.source.key key && p.stale))
          e.paths;
      t.npaths <- t.npaths - (before - List.length e.paths);
      recompute t prefix e)

let stale_count t ~key =
  List.fold_left
    (fun acc (_, e) ->
      acc
      + List.length
          (List.filter
             (fun p -> String.equal p.source.key key && p.stale)
             e.paths))
    0 (sorted_entries t)

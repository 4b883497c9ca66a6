(* The one blessed collect-then-sort point for hash tables: everything
   else goes through [bindings], so iteration order can never leak into
   digests, snapshots, or telemetry. *)

let bindings ~compare:cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let keys ~compare tbl = List.map fst (bindings ~compare tbl)

let keys_where ~compare ~keep tbl =
  Hashtbl.fold (fun k _ acc -> if keep k then k :: acc else acc) tbl []
  |> List.sort compare

let iter_sorted ~compare f tbl =
  List.iter (fun (k, v) -> f k v) (bindings ~compare tbl)

let fold_sorted ~compare f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (bindings ~compare tbl)

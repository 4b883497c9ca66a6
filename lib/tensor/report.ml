(* Report output settings are domain-local: the CSV sink and section
   slugs belong to whichever domain is printing an experiment, so a
   campaign worker can never redirect (or renumber) the main domain's
   report files. *)
type state = {
  mutable csv_dir : string option;
  mutable current_slug : string;
  mutable slug_counter : int;
}

let key =
  Domain.DLS.new_key (fun () ->
      { csv_dir = None; current_slug = "output"; slug_counter = 0 })

let state () = Domain.DLS.get key

let set_csv_dir d =
  (state ()).csv_dir <- d;
  match d with
  | Some dir -> Telemetry.Control.mkdir_p dir
  | None -> ()

let slugify title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '_')
    title

let section title =
  let st = state () in
  st.current_slug <- slugify title;
  st.slug_counter <- 0;
  let line = String.make (String.length title + 4) '=' in
  Format.printf "@.%s@.= %s =@.%s@." line title line

let subsection title = Format.printf "@.-- %s --@." title

let kv label fmt =
  Format.printf "  %-34s: " label;
  Format.kfprintf (fun f -> Format.pp_print_newline f ()) Format.std_formatter fmt

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv ~header rows =
  let st = state () in
  match st.csv_dir with
  | None -> ()
  | Some dir ->
      st.slug_counter <- st.slug_counter + 1;
      let name =
        if st.slug_counter = 1 then st.current_slug
        else Printf.sprintf "%s_%d" st.current_slug st.slug_counter
      in
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      List.iter
        (fun row ->
          output_string oc (String.concat "," (List.map csv_escape row));
          output_char oc '\n')
        (header :: rows);
      close_out oc

let table ~header rows =
  write_csv ~header rows;
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    Format.printf "  ";
    List.iteri
      (fun c w ->
        let cell = match List.nth_opt row c with Some s -> s | None -> "" in
        Format.printf "%-*s  " w cell)
      widths;
    Format.printf "@."
  in
  print_row header;
  Format.printf "  %s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter print_row rows

let note fmt =
  Format.printf "  > ";
  Format.kfprintf (fun f -> Format.pp_print_newline f ()) Format.std_formatter fmt

let fseconds s =
  if Float.is_nan s then "-"
  else if s >= 1.0 then Printf.sprintf "%.2f s" s
  else if s >= 0.001 then Printf.sprintf "%.1f ms" (s *. 1e3)
  else Printf.sprintf "%.0f us" (s *. 1e6)

let fbps v =
  if v >= 1e9 then Printf.sprintf "%.2f Gbps" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.1f Mbps" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1f Kbps" (v /. 1e3)
  else Printf.sprintf "%.0f bps" v

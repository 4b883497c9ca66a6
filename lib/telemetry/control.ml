let set_enabled = Gate.set
let enabled = Gate.on

let set_bus_capacity ?category n =
  match category with
  | None -> Bus.set_capacity n
  | Some c -> Bus.set_category_capacity c n

let reset () =
  Bus.clear ();
  Span.clear ();
  Registry.reset_values ()

(* Entries reach [capture] through a live subscription rather than a
   ring read, so a ring sized too small for the run cannot overwrite a
   milestone before the caller sees it. *)
let capture ?category f =
  let was_on = Gate.on () in
  let rev = ref [] in
  let sub = Bus.subscribe ?category (fun e -> rev := e :: !rev) in
  Gate.set true;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Bus.unsubscribe sub;
        Gate.set was_on)
      f
  in
  (result, List.rev !rev)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

let export_dir dir =
  mkdir_p dir;
  write_file (Filename.concat dir "metrics.csv") (Registry.to_csv ());
  write_file (Filename.concat dir "metrics.json") (Registry.to_json ());
  let buf = Buffer.create 4096 in
  Bus.to_jsonl buf;
  write_file (Filename.concat dir "events.jsonl") (Buffer.contents buf);
  Buffer.clear buf;
  Span.to_jsonl buf;
  write_file (Filename.concat dir "spans.jsonl") (Buffer.contents buf)

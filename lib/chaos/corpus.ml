let entry_extension = ".chaos"

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec next () =
        match input_line ic with
        | line ->
            let line = String.trim line in
            if line = "" || String.length line > 0 && line.[0] = '#' then
              next ()
            else Descriptor.of_string line
        | exception End_of_file ->
            Error (Printf.sprintf "%s: no descriptor line" path)
      in
      next ())

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f entry_extension)
    |> List.sort String.compare
    |> List.map (fun f -> (f, load_file (Filename.concat dir f)))

let save ~dir ~comment d =
  Telemetry.Control.mkdir_p dir;
  let line = Descriptor.to_string d in
  let fingerprint =
    String.sub (Digest.to_hex (Digest.string line)) 0 8
  in
  let path =
    Filename.concat dir
      (Printf.sprintf "seed%d-%s%s" d.Descriptor.seed fingerprint
         entry_extension)
  in
  let header =
    String.concat ""
      (List.map (fun l -> "# " ^ l ^ "\n") (String.split_on_char '\n' comment))
  in
  Telemetry.Control.write_file path (header ^ line ^ "\n");
  path

type replay = {
  name : string;
  outcome : Runner.outcome option;
  parse_error : string option;
  deterministic : bool;
}

let replay_ok r =
  match (r.outcome, r.parse_error) with
  | Some o, None -> Runner.ok o && r.deterministic
  | _ -> false

let replay_file path =
  let name = Filename.basename path in
  match load_file path with
  | Error e ->
      { name; outcome = None; parse_error = Some e; deterministic = false }
  | Ok d ->
      let o1 = Runner.run d in
      let o2 = Runner.run d in
      {
        name;
        outcome = Some o2;
        parse_error = None;
        deterministic = String.equal o1.Runner.digest o2.Runner.digest;
      }

let replay_dir dir =
  load_dir dir
  |> List.map (fun (name, _) -> replay_file (Filename.concat dir name))

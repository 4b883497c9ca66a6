let reset () =
  Bus.clear ();
  Registry.reset_values ()

let capture f =
  let was_on = Gate.on () in
  Gate.set true;
  let mark = Bus.mark () in
  let result = Fun.protect ~finally:(fun () -> Gate.set was_on) f in
  (result, Bus.since mark)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

let reset () =
  Bus.clear ();
  Registry.reset_values ()

(* Entries reach [capture] through a live subscription rather than a
   ring read, so a ring sized too small for the run cannot overwrite a
   milestone before the caller sees it. *)
let capture f =
  let was_on = Gate.on () in
  let rev = ref [] in
  (* lint: allow h1 — the subscriber is built once per capture; its one cons per entry builds the capture's result *)
  let sub = Bus.subscribe (fun e -> rev := e :: !rev) in
  Gate.set true;
  let result =
    Fun.protect
      (* lint: allow h1 — once per capture *)
      ~finally:(fun () ->
        Bus.unsubscribe sub;
        Gate.set was_on)
      f
  in
  (* lint: allow h1 — the capture's result, built once *)
  (result, List.rev !rev)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

type ctx = { file : string }

type t = {
  name : string;
  severity : Finding.severity;
  doc : string;
  rationale : string;  (* the why, printed by `tensor-lint --explain` *)
  example : string;  (* minimal source that trips the pass *)
  check : ctx -> Parsetree.structure -> Finding.t list;
  graph_check : (Callgraph.t -> Finding.t list) option;
      (* interprocedural passes run once over the repo call graph,
         after the per-file stage, on the calling domain *)
}

let graph_finding pass ~file ~loc fmt =
  let p = loc.Location.loc_start in
  Printf.ksprintf
    (Finding.v ~pass:pass.name ~severity:pass.severity ~file
       ~line:p.Lexing.pos_lnum
       ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol))
    fmt

let finding ctx ~pass ~loc fmt =
  let p = loc.Location.loc_start in
  Printf.ksprintf
    (Finding.v ~pass:pass.name ~severity:pass.severity ~file:ctx.file
       ~line:p.Lexing.pos_lnum
       ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol))
    fmt

let last = Callgraph.last_segment
let flatten = Callgraph.flatten
let normalize = Callgraph.normalize

let file_in_dirs ctx dirs =
  let file = normalize ctx.file in
  List.exists
    (fun d ->
      let d = if String.ends_with ~suffix:"/" d then d else d ^ "/" in
      String.starts_with ~prefix:d file
      ||
      (* ".../<d>/..." anywhere, so absolute paths scope too *)
      let needle = "/" ^ d in
      let n = String.length needle and len = String.length file in
      let rec scan i =
        i + n <= len && (String.sub file i n = needle || scan (i + 1))
      in
      scan 0)
    dirs

let file_is ctx suffix =
  let file = normalize ctx.file in
  String.equal file suffix || String.ends_with ~suffix:("/" ^ suffix) file

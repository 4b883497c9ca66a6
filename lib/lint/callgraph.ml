(* A repo-wide call graph over the parsed sources, built once per lint
   run and shared by the interprocedural passes (h1, d5, p3), plus the
   reader index behind the unread-export pass (i1).

   Nodes are top-level [let] bindings — including bindings inside
   nested [module M = struct .. end], qualified as "M.f" — one per
   (file, qualified name). Edges are resolved purely syntactically,
   without the typer:

   - [Lident f] resolves to a definition in the same file unless [f]
     is bound anywhere inside the caller's own body (over-approximate
     shadowing: when in doubt, no edge), with file-level [open M]
     consulted as a fallback.
   - [M.f] (and deeper paths like [Netsim.Addr.equal]) resolve by
     matching module segments right-to-left against nested modules of
     the same file first, then against repo file module names (the
     capitalized basename), preferring a file in the caller's own
     directory and refusing ambiguous matches.

   Unresolved references (stdlib, external libraries, ambiguity) get
   no edge: reachability is an under-approximation on the edge side
   but an over-approximation on the reference side — every identifier
   occurrence counts as a potential call, so a function passed to
   [List.iter] is still an edge. All traversals run over sorted
   structures, so build and query output are deterministic for a given
   file set regardless of hashing or domain scheduling. *)

module SS = Set.Make (String)

type def = {
  d_file : string;  (* normalized path, e.g. "lib/sim/engine.ml" *)
  d_name : string;  (* qualified within the file, e.g. "Heap.push" *)
  d_loc : Location.t;
  d_body : Parsetree.expression;
}

type file_info = {
  fi_file : string;
  fi_module : string;
  fi_dir : string;
  fi_opens : string list;  (* last segment of each top-level open *)
  fi_defs : def list;  (* source order *)
}

type t = {
  files : file_info list;  (* sorted by file *)
  by_module : (string, string list) Hashtbl.t;  (* module -> files *)
  library : (string, string) Hashtbl.t;
      (* file -> its dune library's module name, for lib/*/ files *)
  defs_tbl : (string * string, def) Hashtbl.t;
  edges : (string * string, (string * string) list) Hashtbl.t;
  interfaces : (string * Parsetree.signature) list;  (* sorted by file *)
  sources : (string * Parsetree.structure) list;
      (* every reader source, linted or not, sorted by file; never
         part of the edges *)
}

let normalize file =
  let file = String.map (function '\\' -> '/' | c -> c) file in
  if String.starts_with ~prefix:"./" file then
    String.sub file 2 (String.length file - 2)
  else file

let module_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

let rec last_segment = function
  | Longident.Lident s -> s
  | Longident.Ldot (_, s) -> s
  | Longident.Lapply (_, l) -> last_segment l

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply (l, _) -> flatten l

(* --- Definition collection ---------------------------------------------- *)

let rec binder_name (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binder_name p
  | _ -> None

let rec defs_of_items ~file ~prefix (items : Parsetree.structure) acc =
  List.fold_left
    (fun acc (it : Parsetree.structure_item) ->
      match it.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left
            (fun acc (vb : Parsetree.value_binding) ->
              match binder_name vb.pvb_pat with
              | Some n ->
                  {
                    d_file = file;
                    d_name = prefix ^ n;
                    d_loc = vb.pvb_loc;
                    d_body = vb.pvb_expr;
                  }
                  :: acc
              | None -> acc)
            acc vbs
      | Pstr_module mb -> defs_of_module ~file ~prefix mb acc
      | Pstr_recmodule mbs ->
          List.fold_left
            (fun acc mb -> defs_of_module ~file ~prefix mb acc)
            acc mbs
      | _ -> acc)
    acc items

and defs_of_module ~file ~prefix (mb : Parsetree.module_binding) acc =
  match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
  | Some m, Pmod_structure items ->
      defs_of_items ~file ~prefix:(prefix ^ m ^ ".") items acc
  | _ -> acc

let opens_of_items (items : Parsetree.structure) =
  List.filter_map
    (fun (it : Parsetree.structure_item) ->
      match it.pstr_desc with
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        ->
          Some (last_segment txt)
      | _ -> None)
    items

(* --- Reference collection ------------------------------------------------ *)

(* Every identifier occurrence in [body], in source order, plus the
   over-approximate set of names bound by any pattern inside the body
   (fun params, let bindings, match arms) — a bare reference to one of
   those is treated as local and never resolved to a sibling. *)
let refs_of_body (body : Parsetree.expression) =
  let refs = ref [] in
  let locals = ref SS.empty in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
        locals := SS.add txt !locals
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> refs := txt :: !refs
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with pat; expr } in
  it.expr it body;
  (List.rev !refs, !locals)

(* --- Libraries ------------------------------------------------------------ *)

(* The library module name of a lib/<dir>/ file: the [(name ..)] of the
   directory's [library] stanza ([lib/trace] is [causal]), or the
   directory's own name when its dune file cannot be read (sources
   linted from strings). [None] outside lib/. *)
let library_of_file =
  let name_in dune =
    let marker = "(name " in
    let n = String.length marker and len = String.length dune in
    let rec find i =
      if i + n > len then None
      else if String.sub dune i n = marker then
        let j = ref (i + n) in
        while !j < len && not (String.contains " \t\n)" dune.[!j]) do incr j done;
        Some (String.sub dune (i + n) (!j - i - n))
      else find (i + 1)
    in
    find 0
  in
  fun file ->
    let dir = Filename.dirname file in
    if Filename.basename (Filename.dirname dir) <> "lib" then None
    else
      let declared =
        match In_channel.with_open_text (Filename.concat dir "dune") In_channel.input_all with
        | dune -> name_in dune
        | exception Sys_error _ -> None
      in
      Some (String.capitalize_ascii (Option.value declared ~default:(Filename.basename dir)))

(* --- Resolution ---------------------------------------------------------- *)

(* The files module [m] may denote: the one file of that name, the one
   in the caller's own directory, or else every candidate. *)
let module_files t ~caller_dir m =
  match Hashtbl.find_opt t.by_module m with
  | None -> []
  | Some (([] | [ _ ]) as files) -> files
  | Some files -> (
      match List.filter (fun f -> Filename.dirname f = caller_dir) files with
      | [ f ] -> [ f ]
      | _ -> files)

let resolve_module t ~caller_dir m =
  match module_files t ~caller_dir m with
  | [ f ] -> Some f
  | _ -> None (* ambiguous across directories: refuse *)

(* Defs in [fi] whose qualified name is exactly [q] or ends in ".q". *)
let suffix_defs fi q =
  let dotted = "." ^ q in
  List.filter
    (fun d -> String.equal d.d_name q || String.ends_with ~suffix:dotted d.d_name)
    fi.fi_defs

let resolve t fi locals lid =
  match flatten lid with
  | [] -> None
  | [ f ] ->
      if SS.mem f locals then None
      else if Hashtbl.mem t.defs_tbl (fi.fi_file, f) then
        Some (fi.fi_file, f)
      else
        (* Not a top-level sibling: consult file-level opens. *)
        List.find_map
          (fun m ->
            match resolve_module t ~caller_dir:fi.fi_dir m with
            | Some file when Hashtbl.mem t.defs_tbl (file, f) ->
                Some (file, f)
            | _ -> None)
          fi.fi_opens
  | segments ->
      let f = List.nth segments (List.length segments - 1) in
      let mods = List.filteri (fun i _ -> i < List.length segments - 1) segments in
      (* Same-file nested module first: [Heap.push] from inside
         engine.ml must hit engine.ml's own Heap. *)
      let qualified = String.concat "." (mods @ [ f ]) in
      let same_file =
        match suffix_defs fi qualified with
        | [ d ] -> Some (d.d_file, d.d_name)
        | _ -> None
      in
      if same_file <> None then same_file
      else
        (* Try module segments right-to-left as repo files: for
           [Netsim.Addr.equal], "Addr" wins before "Netsim". *)
        let rec try_from i =
          if i < 0 then None
          else
            let m = List.nth mods i in
            let inner =
              List.filteri (fun j _ -> j > i) mods @ [ f ]
              |> String.concat "."
            in
            match resolve_module t ~caller_dir:fi.fi_dir m with
            | Some file when Hashtbl.mem t.defs_tbl (file, inner) ->
                Some (file, inner)
            | _ -> try_from (i - 1)
        in
        try_from (List.length mods - 1)

(* --- Build --------------------------------------------------------------- *)

let key_compare (f1, n1) (f2, n2) =
  match String.compare f1 f2 with 0 -> String.compare n1 n2 | c -> c

let sorted_by_file units =
  List.map (fun (file, x) -> (normalize file, x)) units
  |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)

let build ?(interfaces = []) ?(readers = []) parsed =
  let files =
    parsed
    |> List.map (fun (file, str) ->
           let file = normalize file in
           let defs = List.rev (defs_of_items ~file ~prefix:"" str []) in
           {
             fi_file = file;
             fi_module = module_of_file file;
             fi_dir = Filename.dirname file;
             fi_opens = opens_of_items str;
             fi_defs = defs;
           })
    |> List.sort (fun a b -> String.compare a.fi_file b.fi_file)
  in
  let by_module = Hashtbl.create 64 in
  List.iter
    (fun fi ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_module fi.fi_module)
      in
      Hashtbl.replace by_module fi.fi_module (prev @ [ fi.fi_file ]))
    files;
  let library = Hashtbl.create 64 in
  List.iter
    (fun fi ->
      Option.iter (Hashtbl.replace library fi.fi_file) (library_of_file fi.fi_file))
    files;
  let defs_tbl = Hashtbl.create 256 in
  List.iter
    (fun fi ->
      List.iter
        (fun d ->
          (* First binding wins on redefinition, matching scoping of
             the last is wrong either way without the typer; keep the
             first so build order (sorted) decides deterministically. *)
          if not (Hashtbl.mem defs_tbl (d.d_file, d.d_name)) then
            Hashtbl.replace defs_tbl (d.d_file, d.d_name) d)
        fi.fi_defs)
    files;
  let t =
    {
      files;
      by_module;
      library;
      defs_tbl;
      edges = Hashtbl.create 256;
      interfaces = sorted_by_file interfaces;
      sources = sorted_by_file (parsed @ readers);
    }
  in
  List.iter
    (fun fi ->
      List.iter
        (fun d ->
          let refs, locals = refs_of_body d.d_body in
          let callees =
            List.filter_map (fun lid -> resolve t fi locals lid) refs
            |> List.filter (fun k -> k <> (d.d_file, d.d_name))
            |> List.sort_uniq key_compare
          in
          Hashtbl.replace t.edges (d.d_file, d.d_name) callees)
        fi.fi_defs)
    files;
  t

let parse_string ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

let build_sources sources =
  build (List.map (fun (file, src) -> (file, parse_string ~file src)) sources)

(* --- Queries ------------------------------------------------------------- *)

let find t ~file ~name = Hashtbl.find_opt t.defs_tbl (normalize file, name)

let callees t ~file ~name =
  Option.value ~default:[] (Hashtbl.find_opt t.edges (normalize file, name))

(* --- Readers ------------------------------------------------------------- *)

(* What [str], the source of [file], reads of the other repo files:
   [(file, name)] per value reference, and [(file, prefix)] (prefix
   [""] or ending in ".") per whole-module use — [include M], a functor
   argument, a packed module — which reads every export under it.
   Over-approximate, since a false "unread" costs more than a missed
   one: a module path counts for every segment that names a repo file
   ([module_files], as in [resolve], but not only the first match) —
   except that a segment after one naming a dune library ([Tensor] in
   [Tensor.Baseline.x]) is that library's file only, and a bare name is
   the caller's own library's file first (its directory, for lib/
   callers) — and
   module aliases ([module R = Bgp.Rib], [let module]) and opens (file
   level, [let open], [M.(..)]) hold over the whole file regardless of
   scope. The walk covers every item, [let () =] included; references
   into [file] itself are dropped. *)
let reads t ~file (str : Parsetree.structure) =
  let file = normalize file in
  let aliases = Hashtbl.create 8 in
  let opens = ref [] and wholes = ref [] and idents = ref [] in
  let path (me : Parsetree.module_expr) =
    match me.pmod_desc with Pmod_ident { txt; _ } -> [ flatten txt ] | _ -> []
  in
  let add r me = r := path me @ !r in
  let alias name me =
    Option.iter (fun n -> List.iter (Hashtbl.add aliases n) (path me)) name
  in
  let open Ast_iterator in
  let structure_item it (si : Parsetree.structure_item) =
    (match si.pstr_desc with
    | Pstr_module { pmb_name; pmb_expr; _ } -> alias pmb_name.txt pmb_expr
    | Pstr_open { popen_expr; _ } -> add opens popen_expr
    | Pstr_include { pincl_mod; _ } -> add wholes pincl_mod
    | _ -> ());
    default_iterator.structure_item it si
  in
  let module_expr it (me : Parsetree.module_expr) =
    (match me.pmod_desc with Pmod_apply (_, arg) -> add wholes arg | _ -> ());
    default_iterator.module_expr it me
  in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> idents := flatten txt :: !idents
    | Pexp_open ({ popen_expr; _ }, _) -> add opens popen_expr
    | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
    | Pexp_pack me -> add wholes me
    | _ -> ());
    default_iterator.expr it e
  in
  let it = { default_iterator with structure_item; module_expr; expr } in
  it.structure it str;
  (* A path and its alias expansions (bounded: aliases may cycle). *)
  let rec expand depth segs =
    match segs with
    | m :: rest when depth < 4 ->
        segs
        :: List.concat_map
             (fun a -> expand (depth + 1) (a @ rest))
             (Hashtbl.find_all aliases m)
    | _ -> [ segs ]
  in
  let dotted = List.fold_left (fun acc s -> acc ^ s ^ ".") "" in
  let in_library q f = Hashtbl.find_opt t.library f = Some q in
  let libraries =
    List.fold_left
      (fun acc fi ->
        match Hashtbl.find_opt t.library fi.fi_file with
        | Some l -> SS.add l acc
        | None -> acc)
      SS.empty t.files
  in
  let direct segs =
    List.concat
      (List.mapi
         (fun i m ->
           let inner = dotted (List.filteri (fun j _ -> j > i) segs) in
           let files = module_files t ~caller_dir:(Filename.dirname file) m in
           let files =
             if i = 0 then files
             else
               let q = List.nth segs (i - 1) in
               if SS.mem q libraries then List.filter (in_library q) files else files
           in
           List.map (fun f -> (f, inner)) files)
         segs)
  in
  let opened = List.concat_map direct (List.concat_map (expand 0) !opens) in
  let targets segs =
    List.concat_map
      (fun segs ->
        direct segs @ List.map (fun (f, p) -> (f, p ^ dotted segs)) opened)
      (expand 0 segs)
  in
  let value segs =
    let n = List.length segs - 1 in
    targets (List.filteri (fun i _ -> i < n) segs)
    |> List.map (fun (f, p) -> (f, p ^ List.nth segs n))
  in
  List.concat_map value !idents @ List.concat_map targets !wholes
  |> List.filter (fun (f, _) -> not (String.equal f file))
  |> List.sort_uniq key_compare

(* Files whose normalized path equals [suffix] or ends in "/suffix":
   lets manifests name "lib/sim/engine.ml" whether the scan ran from
   the repo root or with absolute paths. *)
let files_matching t suffix =
  let suffix = normalize suffix in
  List.filter
    (fun fi ->
      String.equal fi.fi_file suffix
      || String.ends_with ~suffix:("/" ^ suffix) fi.fi_file)
    t.files
  |> List.map (fun fi -> fi.fi_file)

(* --- Reachability -------------------------------------------------------- *)

type reach = {
  r_file : string;
  r_name : string;
  r_depth : int;
  r_via : string;  (* label of the root that first reached this node *)
  r_chain : string list;  (* function names, root first, this node last *)
}

let reachable t ~roots ?max_hops () =
  let visited = Hashtbl.create 256 in
  let out = ref [] in
  let queue = Queue.create () in
  List.iter
    (fun (file, name, label) ->
      List.iter
        (fun rfile ->
          if
            Hashtbl.mem t.defs_tbl (rfile, name)
            && not (Hashtbl.mem visited (rfile, name))
          then begin
            Hashtbl.replace visited (rfile, name) ();
            Queue.add (rfile, name, 0, label, [ name ]) queue
          end)
        (files_matching t file))
    roots;
  while not (Queue.is_empty queue) do
    let file, name, depth, label, chain = Queue.take queue in
    out :=
      {
        r_file = file;
        r_name = name;
        r_depth = depth;
        r_via = label;
        r_chain = List.rev chain;
      }
      :: !out;
    if match max_hops with Some h -> depth < h | None -> true then
      List.iter
        (fun (cfile, cname) ->
          if not (Hashtbl.mem visited (cfile, cname)) then begin
            Hashtbl.replace visited (cfile, cname) ();
            Queue.add (cfile, cname, depth + 1, label, cname :: chain) queue
          end)
        (callees t ~file ~name)
  done;
  List.rev !out

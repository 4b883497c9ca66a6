(* i1 — every export has a reader (warning).

   Checks every [val] of every lib/**/*.mli, submodule signatures
   included ([Store.Client.x]), against Callgraph.reads over every
   reader source: Driver.lint_paths and Driver.reader_paths. Readers
   under test/ are told apart: an export only tests read belongs under
   its interface's [{1 Test-only}] heading, and one under that heading
   that other code reads belongs outside it. A [val] under the heading
   carries a doc comment saying why it stays. *)

open Parsetree

type export = { name : string; loc : Location.t; test_only : bool; documented : bool }

(* [Some is_test_only] for a floating [(** {1 ...} *)] section heading. *)
let heading (item : signature_item) =
  match item.psig_desc with
  | Psig_attribute
      {
        attr_name = { txt = "ocaml.text"; _ };
        attr_payload =
          PStr [ { pstr_desc = Pstr_eval ({ pexp_desc = Pexp_constant c; _ }, _); _ } ];
        _;
      } -> (
      match c with
      | Pconst_string (s, _, _) when String.starts_with ~prefix:"{1 " (String.trim s) ->
          Some (String.starts_with ~prefix:"{1 Test-only}" (String.trim s))
      | _ -> None)
  | _ -> None

(* Every [val] of [items], qualified by its submodule path. A section
   heading opens a region that lasts to the next one; a submodule
   inherits the region it sits in. *)
let rec exports ~prefix ~inherited items =
  let region = ref inherited in
  List.concat_map
    (fun (item : signature_item) ->
      let sub (md : module_declaration) =
        match (md.pmd_name.txt, md.pmd_type.pmty_desc) with
        | Some m, Pmty_signature items ->
            exports ~prefix:(prefix ^ m ^ ".") ~inherited:!region items
        | _ -> []
      in
      match (heading item, item.psig_desc) with
      | Some t, _ ->
          region := inherited || t;
          []
      | None, Psig_value vd ->
          let documented =
            List.exists (fun a -> a.attr_name.txt = "ocaml.doc") vd.pval_attributes
          in
          [
            {
              name = prefix ^ vd.pval_name.txt;
              loc = vd.pval_loc;
              test_only = !region;
              documented;
            };
          ]
      | None, Psig_module md -> sub md
      | None, Psig_recmodule mds -> List.concat_map sub mds
      | None, _ -> [])
    items

let is_test file = Pass.file_in_dirs { Pass.file } [ "test" ]

let rec pass =
  {
    Pass.name = "i1";
    severity = Finding.Warning;
    doc =
      "lib/ interface export that no other module reads, or read only by \
       tests outside the interface's {1 Test-only} section, or kept there \
       without a doc comment";
    rationale =
      "Every val in a lib/ interface is a promise the next refactor must \
       keep. One nobody else reads is surface without a user: drop it \
       from the .mli, and when its own module does not use it either, \
       the compiler's unused-value warning then points at dead code to \
       delete. Readers are counted over lib, bin, bench, examples, \
       perfsuite and test, through file-level and local opens, module \
       aliases, include and functor arguments, so a reported export \
       has no reader. An export only tests read may stay, grouped \
       under one (** {1 Test-only} *) heading per interface, with a doc \
       comment that says why it stays: an inspection accessor a test \
       needs to see internal state, or a capability kept for a reason. \
       Test-only references and helpers belong in test/.";
    example = "val helper : int -> int  (* in foo.mli; nothing reads Foo.helper *)";
    check = (fun _ _ -> []);
    graph_check = Some check_graph;
  }

and check_graph g =
  let readers = Hashtbl.create 4096 in
  List.iter
    (fun (file, str) ->
      List.iter (fun k -> Hashtbl.add readers k file) (Callgraph.reads g ~file str))
    g.Callgraph.sources;
  (* A value's readers, whole-module uses of each enclosing prefix
     ([""; "Client."] for ["Client.x"]) included. *)
  let readers_of file name =
    let parts = String.split_on_char '.' name in
    List.concat
      (List.mapi
         (fun i _ ->
           let prefix = List.filteri (fun j _ -> j < i) parts in
           Hashtbl.find_all readers (file, String.concat "" (List.map (fun s -> s ^ ".") prefix)))
         parts)
    @ Hashtbl.find_all readers (file, name)
  in
  List.concat_map
    (fun (mli, sg) ->
      if not (Pass.file_in_dirs { Pass.file = mli } [ "lib" ]) then []
      else
        let ml = Filename.remove_extension mli ^ ".ml" in
        List.filter_map
          (fun e ->
            let rs = readers_of ml e.name in
            let report fmt =
              Some
                (Pass.graph_finding pass ~file:mli ~loc:e.loc fmt
                   (Callgraph.module_of_file mli) e.name)
            in
            if rs = [] then
              report "%s.%s is exported but no other module reads it; drop it \
                      from the interface"
            else if List.for_all is_test rs && not e.test_only then
              report "%s.%s is read only by tests; group it under the \
                      interface's {1 Test-only} heading"
            else if e.test_only && not (List.for_all is_test rs) then
              report "%s.%s sits under {1 Test-only} but non-test code reads \
                      it; move it out of that section"
            else if e.test_only && not e.documented then
              report "%s.%s sits under {1 Test-only} without a doc comment; \
                      say in one line why it stays"
            else None)
          (exports ~prefix:"" ~inherited:false sg))
    g.Callgraph.interfaces

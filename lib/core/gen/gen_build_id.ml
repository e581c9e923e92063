(* Prints the [Build_id] module: [id] is the md5 over every [.ml], [.mli]
   and dune file under LIB_DIR but EXCLUDED (the generated module), in
   sorted path order, each as its relative path and content digest. It
   moves whenever a library source does, and every executable built
   from one tree carries the same id.
   Usage: gen_build_id.exe LIB_DIR EXCLUDED *)

let () =
  let root = Sys.argv.(1) and excluded = Sys.argv.(2) in
  let rec walk rel =
    Sys.readdir (Filename.concat root rel)
    |> Array.to_list
    |> List.concat_map (fun name ->
        let rel = if rel = "" then name else rel ^ "/" ^ name in
        let path = Filename.concat root rel in
        if name.[0] = '.' then []
        else if Sys.is_directory path then walk rel
        else if rel = excluded
             || not (List.mem (Filename.extension name) [ ".ml"; ".mli" ]
                     || name = "dune")
        then []
        else [ rel ^ " " ^ Digest.to_hex (Digest.file path) ])
  in
  let summary = String.concat "\n" (List.sort compare (walk "")) in
  Printf.printf "let id = %S\n" (Digest.to_hex (Digest.string summary))

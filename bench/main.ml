(* Benchmark harness driver: runs sections from Sections.all, printing
   the paper-comparison tables and writing BENCH_<section>.json next to
   the text output.

   Usage: main.exe [--out DIR] [section ...]
   (default: all sections; `all` is also accepted.)

   Unknown section names are an error (exit 2, listing the valid names);
   a section that fails internally is reported and the harness exits 1
   after running the remaining sections, so CI can trust the exit
   status. *)

module Sections = Bench_sections.Sections

let usage () =
  Printf.eprintf
    "usage: main.exe [--out DIR] [section ...]\navailable sections: %s\n"
    (String.concat " " (Sections.names ()))

let () =
  let rec parse out sections = function
    | [] -> Some (out, List.rev sections)
    | "--out" :: dir :: rest -> parse dir sections rest
    | [ "--out" ] ->
      Printf.eprintf "--out requires a directory argument\n";
      None
    | ("--help" | "-h") :: _ -> None
    | s :: rest -> parse out (s :: sections) rest
  in
  match parse "." [] (List.tl (Array.to_list Sys.argv)) with
  | None ->
    usage ();
    exit 2
  | Some (out_dir, requested) ->
    let requested =
      match requested with
      | [] -> Sections.names ()
      | args when List.mem "all" args -> Sections.names ()
      | args -> args
    in
    (* Validate every name before running anything. *)
    let unknown =
      List.filter (fun name -> Sections.resolve name = None) requested
    in
    if unknown <> [] then begin
      Printf.eprintf "unknown section%s %s (available: %s)\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown)
        (String.concat " " (Sections.names ()));
      exit 2
    end;
    let resolved =
      List.map (fun name -> Option.get (Sections.resolve name)) requested
    in
    Printf.printf
      "Genie reproduction benchmarks - Brustoloni & Steenkiste, OSDI '96\n";
    let failures =
      List.filter_map
        (fun name ->
          match Sections.run_one ~out_dir name with
          | Ok (Some path) ->
            Printf.printf "[bench] wrote %s\n" path;
            None
          | Ok None -> None
          | Error msg ->
            Printf.eprintf "[bench] %s\n" msg;
            Some name)
        resolved
    in
    if failures <> [] then begin
      Printf.eprintf "[bench] %d section(s) failed: %s\n" (List.length failures)
        (String.concat ", " failures);
      exit 1
    end

(* Benchmark regression gate: compare the tracked medians of a fresh
   BENCH_*.json against a committed baseline and fail on regressions.

     compare.exe BASELINE CURRENT [--threshold PCT]
                 [--overhead NAME:REF:PCT] [--speedup NAME:REF:FACTOR]
                 [--only-gates]

   Entries are matched on (name, parameter value); an entry present in
   the baseline but missing from the current run is itself a failure
   (a silently dropped benchmark would otherwise pass forever). The
   parser is deliberately narrow: it reads exactly the line-oriented
   format `write_json` in main.ml emits, so no JSON dependency is
   needed.

   `--overhead NAME:REF:PCT` is an intra-file gate on CURRENT: for
   every parameter value where both NAME and REF appear, NAME's median
   must stay within PCT percent of REF's median. Used to bound the
   cost of instrumented re-runs (e.g. vae_grad_step_obs vs
   vae_grad_step) without needing a separate baseline file.

   `--speedup NAME:REF:FACTOR` is a cross-file gate: NAME's median in
   CURRENT must be at least FACTOR times faster than REF's median in
   BASELINE (matched on parameter value). Used to assert that the
   VAE gradient step holds its 2x win over the committed batched
   baseline. With `--only-gates`
   the baseline-coverage regression walk is skipped, so BASELINE and
   CURRENT may track different entry sets. *)

type entry = {
  name : string;
  pkey : string;
  pval : int;
  median_ms : float;
}

let parse_entry line =
  try
    Scanf.sscanf line " { \"name\": %S, %S: %d, \"mean_ms\": %f, \
                       \"stddev_ms\": %f, \"median_ms\": %f"
      (fun name pkey pval _mean _std median ->
        Some { name; pkey; pval; median_ms = median })
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

let read_entries path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "compare: cannot open %s: %s\n%!" path msg;
      exit 2
  in
  let entries = ref [] in
  (try
     while true do
       match parse_entry (input_line ic) with
       | Some e -> entries := e :: !entries
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* Cross-file speedup gate: NAME (current) must be >= factor x faster
   than REF (baseline). *)
let check_speedup ~baseline ~current ~name ~ref_name ~factor =
  let subjects = List.filter (fun e -> e.name = name) current in
  if subjects = [] then (
    Printf.printf "%-28s missing from current run  FAIL\n" name;
    true)
  else
    List.fold_left
      (fun failed s ->
        match
          List.find_opt
            (fun r -> r.name = ref_name && r.pval = s.pval)
            baseline
        with
        | None ->
            Printf.printf "%-28s %s=%-7d no baseline %s entry  FAIL\n" s.name
              s.pkey s.pval ref_name;
            true
        | Some r ->
            let speedup = r.median_ms /. s.median_ms in
            let bad = speedup < factor in
            Printf.printf "%-28s %s=%-7d %12.4f %12.4f %7.2fx  %s\n"
              (s.name ^ " vs " ^ ref_name)
              s.pkey s.pval r.median_ms s.median_ms speedup
              (if bad then Printf.sprintf "FAIL (< %.2fx)" factor else "ok")
            |> ignore;
            failed || bad)
      false subjects

(* Gate NAME's medians against REF's within a single entry list. *)
let check_overhead entries ~name ~ref_name ~pct =
  let of_name n = List.filter (fun e -> e.name = n) entries in
  let subjects = of_name name in
  if subjects = [] then (
    Printf.printf "%-28s missing from current run  FAIL\n" name;
    true)
  else
    List.fold_left
      (fun failed s ->
        match
          List.find_opt (fun r -> r.pval = s.pval) (of_name ref_name)
        with
        | None ->
            Printf.printf "%-28s %s=%-7d no %s entry to compare  FAIL\n"
              s.name s.pkey s.pval ref_name;
            true
        | Some r ->
            let delta_pct =
              (s.median_ms -. r.median_ms) /. r.median_ms *. 100.
            in
            let bad = delta_pct > pct in
            Printf.printf "%-28s %s=%-7d %12.4f %12.4f %+8.1f%%  %s\n"
              (s.name ^ " vs " ^ ref_name)
              s.pkey s.pval r.median_ms s.median_ms delta_pct
              (if bad then "FAIL" else "ok");
            failed || bad)
      false subjects

let () =
  let threshold = ref 15.0 in
  let overheads = ref [] in
  let speedups = ref [] in
  let only_gates = ref false in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        threshold := float_of_string v;
        parse_args rest
    | "--only-gates" :: rest ->
        only_gates := true;
        parse_args rest
    | "--speedup" :: v :: rest ->
        (match String.split_on_char ':' v with
        | [ name; ref_name; factor ] -> (
            match float_of_string_opt factor with
            | Some factor -> speedups := (name, ref_name, factor) :: !speedups
            | None ->
                Printf.eprintf "compare: bad --speedup factor %S\n%!" factor;
                exit 2)
        | _ ->
            Printf.eprintf
              "compare: --speedup expects NAME:REF:FACTOR, got %S\n%!" v;
            exit 2);
        parse_args rest
    | "--overhead" :: v :: rest ->
        (match String.split_on_char ':' v with
        | [ name; ref_name; pct ] -> (
            match float_of_string_opt pct with
            | Some pct -> overheads := (name, ref_name, pct) :: !overheads
            | None ->
                Printf.eprintf "compare: bad --overhead percent %S\n%!" pct;
                exit 2)
        | _ ->
            Printf.eprintf
              "compare: --overhead expects NAME:REF:PCT, got %S\n%!" v;
            exit 2);
        parse_args rest
    | p :: rest ->
        paths := p :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline_path, current_path =
    match List.rev !paths with
    | [ b; c ] -> (b, c)
    | _ ->
        Printf.eprintf
          "usage: compare.exe BASELINE CURRENT [--threshold PCT] \
           [--overhead NAME:REF:PCT] [--speedup NAME:REF:FACTOR] \
           [--only-gates]\n%!";
        exit 2
  in
  let baseline = read_entries baseline_path in
  let current = read_entries current_path in
  if baseline = [] then (
    Printf.eprintf "compare: no entries parsed from %s\n%!" baseline_path;
    exit 2);
  let failed = ref false in
  Printf.printf "%-28s %10s %12s %12s %9s\n" "benchmark" "param"
    "baseline_ms" "current_ms" "delta";
  if not !only_gates then
  List.iter
    (fun b ->
      let found =
        List.find_opt
          (fun c -> c.name = b.name && c.pval = b.pval)
          current
      in
      match found with
      | None ->
          failed := true;
          Printf.printf "%-28s %s=%-7d missing from current run  FAIL\n"
            b.name b.pkey b.pval
      | Some c ->
          let delta_pct =
            (c.median_ms -. b.median_ms) /. b.median_ms *. 100.
          in
          let verdict = if delta_pct > !threshold then "FAIL" else "ok" in
          if delta_pct > !threshold then failed := true;
          Printf.printf "%-28s %s=%-7d %12.4f %12.4f %+8.1f%%  %s\n" b.name
            b.pkey b.pval b.median_ms c.median_ms delta_pct verdict)
    baseline;
  List.iter
    (fun (name, ref_name, pct) ->
      if check_overhead current ~name ~ref_name ~pct then failed := true)
    (List.rev !overheads);
  List.iter
    (fun (name, ref_name, factor) ->
      if check_speedup ~baseline ~current ~name ~ref_name ~factor then
        failed := true)
    (List.rev !speedups);
  if !failed then (
    Printf.printf "regression: some tracked gates failed\n%!";
    exit 1)
  else if !only_gates then Printf.printf "all gates passed\n%!"
  else
    Printf.printf "all tracked medians within %.0f%% of baseline\n%!"
      !threshold

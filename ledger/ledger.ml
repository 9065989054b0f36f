(* The ppvi cost ledger: one benchmark over four workloads.

     ledger.exe --workload NAME --seed N --seconds S --trace 0|1
                [--ppvi PATH] [--spans FILE]
     ledger.exe --smoke [--ppvi PATH]

   With --trace 0 the run measures the end-to-end metrics with no
   spans; with --trace 1 it measures the per-layer metrics, recording
   spans around calls into each layer's public functions and writing
   them to --spans as JSON Lines. Either way the last line of standard
   output is one JSON object: correct, attempted, failed, metrics (each
   with its unit). See README.md in this directory. *)

open Common

type workload = Train of Training.packed | Serve of Serving.workload

let workloads =
  [ ("vae_b256", Train (Training.P Training.vae));
    ("cone_diwhvi", Train (Training.P Training.cone));
    ("serve_chain_2c", Serve Serving.chain_2c);
    ("serve_mixed_1c", Serve Serving.mixed_1c) ]

(* Every workload reports every per-layer metric; a layer a workload
   never calls reads 0. *)
let per_layer =
  [ ("data.batch_ms", "ms"); ("adev.forward_ms", "ms"); ("ad.backward_ms", "ms");
    ("ad.tape_nodes", "count"); ("vi.guard_ms", "ms"); ("vi.optim_ms", "ms");
    ("vi.persist_ms", "ms"); ("vi.persist_share", "ratio"); ("hand.forward_ms", "ms");
    ("hand.backward_ms", "ms"); ("gen.dispatch_ms", "ms"); ("tensor.vae_kernels_ms", "ms");
    ("compile.stage_ms", "ms"); ("parallel.jobs", "count"); ("parallel.parallel_share", "ratio");
    ("gc.minor_kw", "kwords"); ("gc.major_kw", "kwords"); ("ledger.step_ms", "ms");
    ("ledger.unattributed_pct", "%"); ("bench.trace_overhead_pct", "%");
    ("proto.encode_us", "us"); ("proto.decode_us", "us"); ("batcher.submit_p50_ms", "ms");
    ("serve.transport_ms", "ms"); ("batcher.rows_per_batch", "ratio");
    ("batcher.vectorized_share", "ratio"); ("batcher.scalar_fallbacks", "count");
    ("batcher.max_queue", "count") ]

(* End-to-end rows come from the workload in catalogue order; a traced
   run lists every per-layer metric. *)
let metrics ~trace rows =
  let value name =
    match List.find_opt (fun (n, _, _) -> n = name) rows with Some (_, v, _) -> v | None -> 0.
  in
  if trace then List.map (fun (name, unit_) -> { name; value = value name; unit_ }) per_layer
  else List.map (fun (name, value, unit_) -> { name; value; unit_ }) rows

let spans_file tag =
  mkdir_p work_root;
  Filename.concat work_root ("spans-" ^ tag ^ ".jsonl")

let run ~name ~smoke ~seed ~seconds ~trace ~ppvi ~spans =
  let t = tally () in
  let rows =
    match (List.assoc name workloads, trace) with
    | Train p, false -> Training.e2e name p ~smoke ~seed ~seconds t
    | Train p, true -> Training.traced p ~smoke ~seed ~seconds ~spans_path:spans t
    | Serve w, false -> Serving.e2e w ~smoke ~ppvi ~seed ~seconds t
    | Serve w, true -> Serving.traced w ~smoke ~ppvi ~seed ~seconds ~spans_path:spans t
  in
  let ms = metrics ~trace rows in
  List.iter (fun m -> if not (Float.is_finite m.value) then fail t (m.name ^ " is not finite")) ms;
  List.iter (fun m -> Printf.eprintf "  %-26s %14.6g %s\n" m.name m.value m.unit_) ms;
  List.iter (fun why -> Printf.eprintf "ledger: FAILED: %s\n" why) (List.rev t.notes);
  (t, ms)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "child" :: name :: seed :: sub :: steps :: full :: _ ->
    let p = match List.assoc name workloads with Train p -> p | Serve _ -> invalid_arg name in
    Training.child p ~seed:(int_of_string seed) ~sub:(int_of_string sub)
      ~steps:(int_of_string steps) ~full:(full = "1")
  | _ ->
    let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
    let ppvi = ref (String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "ppvi.exe" ]) in
    let spans = ref "" and smoke = ref false in
    Arg.parse
      [ ( "--workload",
          Arg.Set_string workload,
          "NAME one of " ^ String.concat ", " (List.map fst workloads) );
        ("--seed", Arg.Set_int seed, "N seed the workload's inputs are made from (default 0)");
        ("--seconds", Arg.Set_float seconds, "S how long the run measures (default 10)");
        ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
        ("--ppvi", Arg.Set_string ppvi, "PATH the ppvi executable serving workloads spawn");
        ("--spans", Arg.Set_string spans, "FILE where a traced run writes its spans");
        ("--smoke", Arg.Set smoke, " every workload, both modes, tiny sizes, all checks") ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "ledger.exe --workload NAME --seed N --seconds S --trace 0|1";
    if !smoke then begin
      let ok =
        List.for_all
          (fun (name, _) ->
            List.for_all
              (fun trace ->
                Printf.eprintf "ledger: smoke %s trace %b\n%!" name trace;
                let t, _ =
                  run ~name ~smoke:true ~seed:!seed ~seconds:0. ~trace ~ppvi:!ppvi
                    ~spans:(spans_file ("smoke-" ^ name))
                in
                t.failed = 0)
              [ false; true ])
          workloads
      in
      exit (if ok then 0 else 1)
    end;
    if not (List.mem_assoc !workload workloads) then begin
      prerr_endline "ledger: --workload must name one of the four workloads (see --help)";
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "ledger: --trace takes 0 or 1";
      exit 2
    end;
    let spans =
      if !spans <> "" then !spans else spans_file (Printf.sprintf "%s-%d" !workload !seed)
    in
    let t, ms =
      run ~name:!workload ~smoke:false ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~ppvi:!ppvi ~spans
    in
    if !trace = 1 then Printf.eprintf "ledger: spans written to %s\n" spans;
    print_endline (J.to_string (result_json t ms))

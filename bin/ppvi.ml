(* ppvi: command-line front end for the library's training workloads.
   The benchmark tables live in bench/main.exe; this binary is for
   interactive use — train one workload with chosen settings and print
   human-readable results (optionally a CSV series for plotting). *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed.")

let steps_arg default =
  Arg.(value & opt int default & info [ "steps" ] ~doc:"Optimization steps.")

let csv_arg =
  Arg.(
    value & flag
    & info [ "csv" ] ~doc:"Print the per-step objective series as CSV.")

(* Shared by every command: configure the tensor-kernel domain pool
   before the workload runs. Results are bit-identical for any value. *)
let domains_term =
  let apply = function Some n -> Parallel.set_domains n | None -> () in
  Term.(
    const apply
    $ Arg.(
        value
        & opt (some int) None
        & info [ "domains" ]
            ~env:(Cmd.Env.info "PPVI_DOMAINS")
            ~docv:"N"
            ~doc:
              "Number of OCaml domains for parallel tensor kernels (default \
               \\$(env) or 1). Every domain count produces bit-identical \
               results."))

let print_series csv reports =
  if csv then begin
    print_endline "step,objective";
    List.iter
      (fun r -> Printf.printf "%d,%.6f\n" r.Train.step r.Train.objective)
      reports
  end

(* Resilience options, shared by every training command: guard policy,
   gradient clipping, checkpoint/resume paths, rotated in-loop
   checkpointing, and (for resilience testing) a fault-injection
   plan. *)

type resilience = {
  guard : Guard.t;
  checkpoint : string option;
  resume : string option;
  persist : Persist.cfg option;
}

let policy_conv =
  let parse s =
    match Guard.policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown guard policy %S (expected fail-fast|skip-step|rollback-retry)"
             s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Guard.policy_name p))

let positive_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0. && Float.is_finite x -> Ok x
    | Some _ -> Error (`Msg "expected a positive finite number")
    | None -> Error (`Msg (Printf.sprintf "invalid number %S" s))
  in
  Arg.conv (parse, fun ppf x -> Format.fprintf ppf "%g" x)

let fault_spec_conv =
  let parse s =
    match Fault.plan_of_string ~seed:0 s with
    | Ok _ -> Ok s
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf s)

let resilience_term =
  let make policy clip_norm max_retries checkpoint resume ckpt_dir ckpt_every
      ckpt_keep fault fault_seed =
    (match fault with
    | None -> Fault.clear ()
    | Some spec -> (
      match Fault.plan_of_string ~seed:fault_seed spec with
      | Ok plan -> Fault.install plan
      | Error msg ->
        Printf.eprintf "ppvi: bad --fault spec: %s\n" msg;
        exit 1));
    let persist =
      Option.map
        (fun dir -> Persist.cfg ~every:ckpt_every ~keep:ckpt_keep dir)
        ckpt_dir
    in
    { guard = Guard.create ~policy ?clip_norm ~max_retries ();
      checkpoint; resume; persist }
  in
  Term.(
    const make
    $ Arg.(
        value
        & opt policy_conv Guard.Skip_step
        & info [ "guard-policy" ]
            ~doc:
              "What to do when a NaN/Inf objective or gradient is detected: \
               $(b,fail-fast), $(b,skip-step), or $(b,rollback-retry).")
    $ Arg.(
        value
        & opt (some positive_float_conv) None
        & info [ "clip-norm" ]
            ~doc:"Clip gradients jointly to this global L2 norm.")
    $ Arg.(
        value & opt int 3
        & info [ "max-retries" ]
            ~doc:"Rollback budget under --guard-policy=rollback-retry.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "checkpoint" ] ~docv:"FILE"
            ~doc:"Save the trained parameters to $(docv) when done.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "resume" ] ~docv:"PATH"
            ~doc:
              "Load parameters from $(docv) — a checkpoint file, or a \
               $(b,--ckpt-dir) directory (the newest readable checkpoint \
               wins) — and continue training.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "ckpt-dir" ] ~docv:"DIR"
            ~doc:
              "Write rotated, checksummed checkpoints ($(b,ckpt.N)) into \
               $(docv) during training, in the background, and resume \
               from the newest readable one on startup — a crashed run \
               restarted with the same arguments continues bit-exactly \
               (see docs/RESILIENCE.md).")
    $ Arg.(
        value & opt int 25
        & info [ "ckpt-every" ] ~docv:"N"
            ~doc:"Checkpoint every $(docv) committed steps (with --ckpt-dir).")
    $ Arg.(
        value & opt int 3
        & info [ "ckpt-keep" ] ~docv:"N"
            ~doc:"Rotation depth for --ckpt-dir (default 3).")
    $ Arg.(
        value
        & opt (some fault_spec_conv) None
        & info [ "fault" ] ~docv:"SPEC"
            ~doc:
              "Install a deterministic fault-injection plan for this run \
               (resilience testing; see $(b,ppvi chaos) and \
               docs/RESILIENCE.md). Example: \
               \"grad-nan=0.05 io-error=0.1 kill-in=10..40\".")
    $ Arg.(
        value & opt int 0
        & info [ "fault-seed" ] ~docv:"N"
            ~doc:"Seed for the --fault plan's own PRNG stream."))

(* Observability options shared by the training commands: stream a
   JSONL trace and/or print the aggregated tables at the end. *)

type obs_opts = { trace : string option; metrics : bool }

let obs_term =
  let make trace metrics = { trace; metrics } in
  Term.(
    const make
    $ Arg.(
        value
        & opt (some string) None
        & info [ "trace" ] ~docv:"FILE"
            ~doc:
              "Enable observability and stream span/metric events to \
               $(docv) as JSON Lines (schema in docs/OBSERVABILITY.md). \
               Preflight and progress messages become \"msg\" events in \
               the file, keeping stderr machine-clean.")
    $ Arg.(
        value & flag
        & info [ "metrics" ]
            ~doc:
              "Enable observability and print the aggregated span, \
               counter, and estimator tables to stderr when the run \
               finishes."))

let open_trace path =
  try Obs.configure ~enabled:true ~sink:(`File path) ()
  with Sys_error msg ->
    Printf.eprintf "ppvi: cannot open trace file: %s\n" msg;
    exit 1

let obs_setup o =
  match o.trace with
  | Some path -> open_trace path
  | None -> if o.metrics then Obs.configure ~enabled:true ()

(* Snapshot the process-wide gauges the library layers cannot push
   themselves (they would need a dependency on lib/parallel). *)
let obs_gauges () =
  Obs.gauge "parallel/domains" (float_of_int (Parallel.domains ()));
  Obs.gauge "parallel/jobs" (float_of_int (Parallel.jobs_run ()));
  Obs.gauge "parallel/jobs_parallel"
    (float_of_int (Parallel.jobs_parallel ()));
  Obs.gauge "parallel/blocks" (float_of_int (Parallel.blocks_run ()));
  Obs.gauge "ad/nodes_total" (float_of_int (Ad.node_count ()));
  Obs.gauge "ad/peak_live_nodes" (float_of_int (Ad.peak_live_nodes ()));
  Obs.gauge "ad/remat_replays" (float_of_int (Ad.remat_replays ()))

let obs_finish o =
  if o.trace <> None || o.metrics then obs_gauges ();
  if o.metrics then Obs.report_human Format.err_formatter;
  if o.trace <> None then begin
    Obs.flush ();
    Obs.shutdown ()
  end

(* Opt-in static pre-flight shared by the training commands: analyze
   this workload's registry targets before training. Warnings by
   default; --preflight-strict turns error-severity diagnostics into a
   non-zero exit. *)
let preflight_term =
  let make enabled strict = (enabled || strict, strict) in
  Term.(
    const make
    $ Arg.(
        value & flag
        & info [ "preflight" ]
            ~doc:
              "Statically analyze this workload's model/guide programs \
               before training (see $(b,ppvi check)); diagnostics are \
               printed to stderr.")
    $ Arg.(
        value & flag
        & info [ "preflight-strict" ]
            ~doc:
              "Like $(b,--preflight), but exit with an error when the \
               analyzer reports error-severity diagnostics."))

let run_preflight (enabled, strict) filter =
  if enabled then begin
    let results = Preflight.run_all ~filter () in
    let clean = List.filter (fun (e, _) -> e.Preflight.expect = []) results in
    List.iter
      (fun (e, r) ->
        List.iter
          (fun d ->
            Obs.message Obs.Preflight
              (Format.asprintf "[preflight %s] %a" e.Preflight.name
                 Check.pp_diagnostic d))
          r.Check.diagnostics)
      clean;
    let bad = List.filter (fun (_, r) -> Check.has_errors r) clean in
    if bad <> [] then begin
      Obs.message Obs.Preflight
        (Printf.sprintf
           "preflight: %d of %d target(s) have error-severity diagnostics"
           (List.length bad) (List.length clean));
      if strict then exit 1
    end
    else
      Obs.message Obs.Preflight
        (Printf.sprintf "preflight: %d target(s) clean" (List.length clean))
  end

(* When a --resume file is missing or corrupt, scan its directory for a
   sibling rotated checkpoint that still loads and suggest it — one
   actionable line instead of a backtrace. *)
let resume_hint path =
  let dir = Filename.dirname path in
  let index f =
    if String.length f > 5 && String.sub f 0 5 = "ckpt." then
      int_of_string_opt (String.sub f 5 (String.length f - 5))
    else None
  in
  let loadable =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             match index f with
             | Some i when f <> Filename.basename path -> (
               let full = Filename.concat dir f in
               match Store.load full with
               | _ -> Some (i, full)
               | exception _ -> None)
             | _ -> None)
  in
  match List.sort (fun (a, _) (b, _) -> compare b a) loadable with
  | (_, best) :: _ ->
    Printf.sprintf " (a loadable checkpoint exists at %s; try --resume %s)"
      best best
  | [] -> ""

let resume_fail path what =
  Printf.eprintf "ppvi: cannot resume: %s%s\n" what (resume_hint path);
  exit 1

let initial_store r =
  Option.map
    (fun path ->
      if Sys.file_exists path && Sys.is_directory path then
        (* A directory: pick the newest readable rotated checkpoint,
           falling back past corrupt ones. The typed error carries the
           right hint for each failure (missing dir / empty dir /
           all-corrupt) instead of presuming a loadable sibling. *)
        match Store.load_latest_result path with
        | Ok (store, chosen) ->
          Printf.printf "resuming from %s\n" chosen;
          store
        | Error e ->
          Printf.eprintf "ppvi: cannot resume: %s\n"
            (Store.latest_error_message e);
          exit 1
      else
        try Store.load path with
        | Sys_error msg -> resume_fail path msg
        | Store.Corrupt_checkpoint msg ->
          resume_fail path
            (Printf.sprintf "corrupt checkpoint %s: %s" path msg))
    r.resume

let finish_run r store =
  (match r.checkpoint with
  | Some path -> (
    try
      Store.save store path;
      Printf.printf "checkpoint saved to %s (%d parameters)\n" path
        (Store.parameter_count store)
    with Sys_error msg ->
      Printf.eprintf "ppvi: cannot save checkpoint: %s\n" msg;
      exit 1)
  | None -> ());
  let g = r.guard in
  if Guard.anomaly_count g > 0 || Guard.retry_count g > 0 then
    Printf.printf
      "guard [%s]: %d anomalies, %d skipped steps, %d rollbacks\n"
      (Guard.policy_name (Guard.policy g))
      (Guard.anomaly_count g) (Guard.skip_count g) (Guard.retry_count g);
  if Fault.active () then begin
    (match Fault.injected () with
    | [] -> Printf.printf "faults injected: none\n"
    | tallies ->
      Printf.printf "faults injected:%s\n"
        (String.concat ""
           (List.map (fun (k, n) -> Printf.sprintf " %s=%d" k n) tallies)));
    Fault.clear ()
  end

(* Socket-layer failures (no daemon listening, unbindable path, peer
   gone mid-call) are expected operational errors: one clean line and
   exit 1, never an uncaught exception. *)
let socket_errors f =
  try f () with
  | Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "ppvi: %s%s: %s\n" fn
      (if arg = "" then "" else " " ^ arg)
      (Unix.error_message e);
    exit 1
  | Failure msg ->
    Printf.eprintf "ppvi: %s\n" msg;
    exit 1

(* A checkpoint write that still fails after its retry budget reaches
   a training command as [Sys_error] (from [Persist]): one clean line
   and exit 1, never an uncaught exception. The other file errors of
   these commands (--resume, --checkpoint, --trace) are reported where
   they happen. *)
let checkpoint_errors f =
  try f () with Sys_error msg ->
    Printf.eprintf "ppvi: cannot write checkpoint: %s\n" msg;
    exit 1

(* cone *)

let cone_objective_conv =
  let parse = function
    | "elbo" -> Ok Cone.Elbo
    | "iwelbo" -> Ok (Cone.Iwelbo 5)
    | "hvi" -> Ok Cone.Hvi
    | "iwhvi" -> Ok (Cone.Iwhvi 5)
    | "diwhvi" -> Ok (Cone.Diwhvi (5, 5))
    | s -> Error (`Msg (Printf.sprintf "unknown objective %S" s))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Cone.objective_name k))

let cone_cmd =
  let run objective steps seed csv resilience pf obs =
   checkpoint_errors @@ fun () ->
    obs_setup obs;
    run_preflight pf "cone/";
    let store, reports =
      Cone.train ~steps ~guard:resilience.guard ?persist:resilience.persist
        ?store:(initial_store resilience) objective (Prng.key seed)
    in
    Printf.printf "%s after %d steps: %.3f\n"
      (Cone.objective_name objective)
      steps
      (Cone.final_value store objective (Prng.key (seed + 1)));
    print_series csv reports;
    finish_run resilience store;
    obs_finish obs
  in
  Cmd.v
    (Cmd.info "cone" ~doc:"Train a guide on the ring posterior (Fig. 2/3).")
    Term.(
      const (fun () -> run)
      $ domains_term
      $ Arg.(
          value
          & opt cone_objective_conv Cone.Elbo
          & info [ "objective" ] ~doc:"elbo|iwelbo|hvi|iwhvi|diwhvi")
      $ steps_arg 1500 $ seed_arg $ csv_arg $ resilience_term
      $ preflight_term $ obs_term)

(* coin *)

let coin_cmd =
  let run steps seed csv resilience pf obs =
   checkpoint_errors @@ fun () ->
    obs_setup obs;
    run_preflight pf "coin";
    let store, reports, seconds =
      Coin.train ~steps ~guard:resilience.guard ?persist:resilience.persist
        ?store:(initial_store resilience) (Prng.key seed)
    in
    Printf.printf
      "posterior mean %.3f (exact %.3f), final ELBO %.2f, %.2f s\n"
      (Coin.posterior_mean store) Coin.exact_posterior_mean
      (Coin.final_elbo store (Prng.key (seed + 1)))
      seconds;
    print_series csv reports;
    finish_run resilience store;
    obs_finish obs
  in
  Cmd.v
    (Cmd.info "coin" ~doc:"Beta-Bernoulli coin fairness (Appendix D.1).")
    Term.(
      const (fun () -> run)
      $ domains_term $ steps_arg 1500 $ seed_arg $ csv_arg $ resilience_term
      $ preflight_term $ obs_term)

(* regression *)

let regression_cmd =
  let run steps seed csv resilience pf obs =
   checkpoint_errors @@ fun () ->
    obs_setup obs;
    run_preflight pf "regression";
    let store, reports, seconds =
      Regression.train ~steps ~guard:resilience.guard
        ?persist:resilience.persist ?store:(initial_store resilience)
        (Prng.key seed)
    in
    let a, ba, br, bar = Regression.coefficient_means store in
    Printf.printf "a=%.2f bA=%.2f bR=%.2f bAR=%.2f  (%.2f s)\n" a ba br bar
      seconds;
    Printf.printf "ELBO/datum %.3f\n"
      (Regression.final_elbo_per_datum store (Prng.key (seed + 1)));
    print_series csv reports;
    finish_run resilience store;
    obs_finish obs
  in
  Cmd.v
    (Cmd.info "regression"
       ~doc:"Bayesian linear regression (Appendix D.2).")
    Term.(
      const (fun () -> run)
      $ domains_term $ steps_arg 1500 $ seed_arg $ csv_arg $ resilience_term
      $ preflight_term $ obs_term)

(* vae *)

let positive_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg "expected a positive integer")
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv (parse, fun ppf n -> Format.fprintf ppf "%d" n)

let shards_arg =
  Arg.(
    value & opt positive_int_conv 1
    & info [ "shards" ]
        ~doc:
          "Data-parallel shards per gradient step: the minibatch is \
           split into $(docv) contiguous slices, each estimated on its \
           own tape on the domain pool and combined with a \
           deterministic tree reduction (bit-reproducible across \
           $(b,--domains) for a fixed shard count). 1 keeps the \
           historical single-tape trajectory.")

let remat_arg =
  Arg.(
    value & flag
    & info [ "remat" ]
        ~doc:
          "Gradient checkpointing: discard each sample's (or shard's) \
           tape segment after the forward pass and rematerialize it \
           during backward. Gradients are bit-identical; peak live \
           tape and major-heap traffic drop, at the cost of a second \
           forward pass.")

let vae_cmd =
  let run steps batch shards remat seed csv resilience pf obs =
   checkpoint_errors @@ fun () ->
    obs_setup obs;
    run_preflight pf "vae";
    let store, reports =
      Vae.train ~steps ~batch ~shards ~remat ~guard:resilience.guard
        ?persist:resilience.persist ?store:(initial_store resilience)
        (Prng.key seed)
    in
    (* Faulted (OOM-skipped) steps report nothing, and --steps 0 resume
       runs report nothing at all — print the last report that exists. *)
    (match List.rev reports with
    | [] ->
      Printf.printf "no completed steps (%d requested, batch %d)\n" steps
        batch
    | r :: _ ->
      Printf.printf "final ELBO/datum %.2f after %d steps (batch %d)\n"
        r.Train.objective steps batch);
    print_series csv reports;
    finish_run resilience store;
    obs_finish obs
  in
  Cmd.v
    (Cmd.info "vae" ~doc:"Sprite-digit VAE (Table 1 workload).")
    Term.(
      const (fun () -> run)
      $ domains_term $ steps_arg 300
      $ Arg.(value & opt int 64 & info [ "batch" ] ~doc:"Batch size.")
      $ shards_arg $ remat_arg $ seed_arg $ csv_arg $ resilience_term
      $ preflight_term $ obs_term)

(* air *)

let strategy_conv =
  let parse = function
    | "re" | "reinforce" -> Ok Air.RE
    | "bl" | "baselines" -> Ok Air.RE_BL
    | "enum" -> Ok Air.EN
    | "mvd" -> Ok Air.MV
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv
    (parse, fun ppf s -> Format.pp_print_string ppf (Air.strategy_name s))

let air_cmd =
  let run strategy epochs images seed resilience pf obs =
    obs_setup obs;
    run_preflight pf "air";
    let data_images, _ = Data.air_batch (Prng.key (seed + 10)) images in
    let eval_images, eval_counts = Data.air_batch (Prng.key (seed + 11)) 64 in
    let store =
      match initial_store resilience with
      | Some s -> s
      | None -> Store.create ()
    in
    Air.register store (Prng.key seed);
    let optim = Optim.adam ~lr:1e-3 () in
    let baselines = Air.make_baselines () in
    for epoch = 1 to epochs do
      let obj, dt =
        Air.train_epoch ~pres:strategy ~pos:strategy ~guard:resilience.guard
          ~store ~optim ~baselines ~objective:Air.Elbo ~images:data_images
          ~batch:16
          (Prng.fold_in (Prng.key seed) epoch)
      in
      let acc =
        Air.count_accuracy store eval_images eval_counts
          (Prng.fold_in (Prng.key (seed + 12)) epoch)
      in
      Printf.printf "epoch %d: ELBO %8.2f  acc %.2f  %.2f s\n%!" epoch obj acc
        dt
    done;
    finish_run resilience store;
    obs_finish obs
  in
  Cmd.v
    (Cmd.info "air" ~doc:"Attend-Infer-Repeat scenes (Table 2 workload).")
    Term.(
      const (fun () -> run)
      $ domains_term
      $ Arg.(
          value & opt strategy_conv Air.MV
          & info [ "strategy" ] ~doc:"re|bl|enum|mvd")
      $ Arg.(value & opt int 5 & info [ "epochs" ] ~doc:"Training epochs.")
      $ Arg.(value & opt int 192 & info [ "images" ] ~doc:"Training scenes.")
      $ seed_arg $ resilience_term $ preflight_term $ obs_term)

(* profile *)

let profile_target_conv =
  Arg.enum
    [ ("cone", `Cone); ("coin", `Coin); ("regression", `Regression);
      ("vae", `Vae) ]

let profile_cmd =
  let run () target objective steps batch shards remat seed json trace =
    (* Recording is on for the whole run; the trace file (when given)
       receives every sampled event, and the aggregate tables go to
       stdout at the end. The parallel counters are cumulative
       process-wide — reset them here so the gauges report THIS run's
       figures, not leftovers from warm-up or a previous profile. *)
    Parallel.reset_counters ();
    (match trace with
    | Some path -> open_trace path
    | None -> Obs.configure ~enabled:true ());
    let name =
      match target with
      | `Cone ->
        ignore (Cone.train ~steps objective (Prng.key seed));
        Printf.sprintf "cone (%s)" (Cone.objective_name objective)
      | `Coin ->
        ignore (Coin.train ~steps (Prng.key seed));
        "coin"
      | `Regression ->
        ignore (Regression.train ~steps (Prng.key seed));
        "regression"
      | `Vae ->
        ignore (Vae.train ~steps ~batch ~shards ~remat (Prng.key seed));
        Printf.sprintf "vae (batch %d%s%s)" batch
          (if shards > 1 then Printf.sprintf ", %d shards" shards else "")
          (if remat then ", remat" else "")
    in
    obs_gauges ();
    if json then print_endline (Obs.report_json ())
    else begin
      Printf.printf "profile: %s, %d steps, seed %d\n" name steps seed;
      Obs.report_human Format.std_formatter
    end;
    if trace <> None then begin
      Obs.flush ();
      Obs.shutdown ()
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Train a workload with observability enabled and print the \
          per-phase time/alloc breakdown, the metric tables, and the \
          per-address estimator-variance ranking (noisiest gradient \
          sites first). See docs/OBSERVABILITY.md for how to read the \
          tables.")
    Term.(
      const run
      $ domains_term
      $ Arg.(
          required
          & pos 0 (some profile_target_conv) None
          & info [] ~docv:"TARGET" ~doc:"cone|coin|regression|vae")
      $ Arg.(
          value
          & opt cone_objective_conv (Cone.Iwhvi 5)
          & info [ "objective" ]
              ~doc:
                "Cone objective (elbo|iwelbo|hvi|iwhvi|diwhvi). The \
                 default iwhvi guide mixes REPARAM and REINFORCE sites, \
                 which is what makes the estimator ranking interesting.")
      $ steps_arg 150
      $ Arg.(value & opt int 64 & info [ "batch" ] ~doc:"VAE batch size.")
      $ shards_arg $ remat_arg $ seed_arg
      $ Arg.(
          value & flag
          & info [ "json" ]
              ~doc:"Emit the report as one JSON object on stdout.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE"
              ~doc:"Also stream events to $(docv) as JSON Lines."))

(* trace-lint *)

let trace_lint_cmd =
  let run () file =
    match Obs.validate_jsonl file with
    | Ok n -> Printf.printf "%s: %d event line(s), all valid JSON\n" file n
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "trace-lint"
       ~doc:
         "Validate a $(b,--trace) JSONL file: every non-empty line must \
          parse as a JSON object. Exits non-zero at the first offending \
          line (used by the CI obs-smoke step).")
    Term.(
      const run $ const ()
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"FILE" ~doc:"Trace file to validate."))

(* compile *)

(* Analysis budgets must be positive: zero fuel would refuse every
   program with a misleading truncation diagnostic, and a zero probe
   width would explore no paths at all. Reject loudly instead. *)
let validate_budget flag v =
  if v <= 0 then begin
    Printf.eprintf "ppvi: --%s must be a positive integer (got %d)\n" flag v;
    exit 2
  end

let compile_cmd =
  let contains hay needle =
    needle = ""
    ||
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let run () json fuel width filter =
    validate_budget "fuel" fuel;
    validate_budget "max-width" width;
    let selected =
      List.filter
        (fun e -> contains e.Preflight.name filter)
        Preflight.entries
    in
    if selected = [] then begin
      Printf.eprintf "compile: no registry entry matches %S\n" filter;
      exit 1
    end;
    (* Each registry target contributes its packed program(s): a pair
       stages model and guide separately, like the objectives do. *)
    let programs =
      List.concat_map
        (fun e ->
          match e.Preflight.make () with
          | Check.Program p -> [ (e.Preflight.name, p) ]
          | Check.Pair { model; guide } ->
            [ (e.Preflight.name ^ "/model", model);
              (e.Preflight.name ^ "/guide", guide) ]
          | exception exn ->
            Printf.eprintf "compile: %s: target construction failed: %s\n"
              e.Preflight.name (Printexc.to_string exn);
            [])
        selected
    in
    let results =
      List.map
        (fun (id, p) -> (id, Compile.compile ~fuel ~max_width:width ~id p))
        programs
    in
    if json then begin
      print_string "[";
      List.iteri
        (fun i (id, r) ->
          if i > 0 then print_string ",";
          print_string (Compile.to_json ~id r))
        results;
      print_endline "]"
    end
    else begin
      List.iter (fun (id, r) -> print_string (Compile.describe ~id r)) results;
      let compiled =
        List.length
          (List.filter (fun (_, r) -> match r with Compile.Compiled _ -> true | _ -> false) results)
      in
      Printf.printf "%d/%d programs compiled (the rest refuse with PV501)\n"
        compiled (List.length results)
    end
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Stage the built-in generative programs into straight-line \
          execution plans and print them: the slot table, the fused \
          per-site kernels, sequential plate fallbacks, and PV501 \
          refusals for programs whose structure is not static. Analysis \
          only: every program runs on the interpreter (see \
          docs/COMPILATION.md).")
    Term.(
      const run $ const ()
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Emit a JSON array of plans on stdout.")
      $ Arg.(
          value & opt int 20000
          & info [ "fuel" ] ~doc:"Structure-discovery node budget.")
      $ Arg.(
          value & opt int 4
          & info [ "max-width" ] ~doc:"Probe values per sample site.")
      $ Arg.(
          value & pos 0 string ""
          & info [] ~docv:"TARGET"
              ~doc:"Registry-name substring filter (default: all)."))

(* check *)

let check_cmd =
  (* The static shape table for one registry entry: every reachable
     site's inferred abstract shape (symbolic plate/iid axes included).
     Construction failures surface as an empty table — the analysis
     report already carries the PV390 diagnostic. *)
  let shapes_of (e : Preflight.entry) ~fuel ~width =
    match e.Preflight.make () with
    | target -> Check.site_shapes ~fuel ~max_width:width target
    | exception _ -> []
  in
  let run () json fuel width shapes filter =
    validate_budget "fuel" fuel;
    validate_budget "width" width;
    let results = Preflight.run_all ~fuel ~max_width:width ~filter () in
    if json then
      if shapes then begin
        let buf = Buffer.create 1024 in
        Buffer.add_string buf "{\"reports\":";
        Buffer.add_string buf (Preflight.results_to_json results);
        Buffer.add_string buf ",\"shapes\":[";
        List.iteri
          (fun i (e, _) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "{\"target\":\"%s\",\"sites\":["
                 e.Preflight.name);
            List.iteri
              (fun j (addr, shp) ->
                if j > 0 then Buffer.add_char buf ',';
                Buffer.add_string buf
                  (Printf.sprintf "{\"address\":\"%s\",\"shape\":\"%s\"}" addr
                     (Shape.to_string shp)))
              (shapes_of e ~fuel ~width);
            Buffer.add_string buf "]}")
          results;
        Buffer.add_string buf "]}";
        print_endline (Buffer.contents buf)
      end
      else print_endline (Preflight.results_to_json results)
    else begin
      Preflight.print_human Format.std_formatter results;
      if shapes then begin
        Printf.printf "static site shapes:\n";
        List.iter
          (fun (e, _) ->
            match shapes_of e ~fuel ~width with
            | [] -> ()
            | sites ->
              Printf.printf "  %s\n" e.Preflight.name;
              List.iter
                (fun (addr, shp) ->
                  Printf.printf "    %-24s %s\n" addr (Shape.to_string shp))
                sites)
          results
      end;
      let failed = List.filter (fun (e, r) -> not (Preflight.entry_ok e r)) results in
      Printf.printf "%d/%d targets ok\n"
        (List.length results - List.length failed)
        (List.length results)
    end;
    if not (Preflight.all_ok results) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze the built-in generative programs: strategy \
          validity, address discipline, and support/shape pre-flight lints \
          (see docs/DIAGNOSTICS.md for the code catalogue).")
    Term.(
      const run
      $ domains_term
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Emit a JSON array of reports on stdout.")
      $ Arg.(
          value & opt int 20000
          & info [ "fuel" ] ~docv:"N"
            ~doc:"Exploration budget (program nodes visited per target).")
      $ Arg.(
          value & opt int 4
          & info [ "width" ] ~docv:"N"
            ~doc:"Maximum probe values per sample site.")
      $ Arg.(
          value & flag
          & info [ "shapes" ]
              ~doc:
                "Also print the statically inferred shape of every \
                 reachable sample site (symbolic plate/iid batch axes \
                 shown as N@addr / B@addr).")
      $ Arg.(
          value & opt string ""
          & info [ "target" ] ~docv:"SUBSTR"
            ~doc:"Only analyze registry targets whose name contains $(docv)."))

(* chaos *)

(* The crash-recovery harness (docs/RESILIENCE.md): establish an
   uninterrupted reference run, then repeatedly fork a child that
   trains the same workload with rotated checkpoints under a fault
   plan that SIGKILLs it at a seeded step, and finally resume once
   more in-process and require the final parameters to be
   bit-identical to the reference. *)

let chaos_target_conv = Arg.enum [ ("coin", `Coin); ("cone", `Cone) ]

let store_bits store =
  List.map
    (fun name ->
      let x = Store.tensor store name in
      ( name,
        Array.init (Tensor.size x) (fun i ->
            Int64.bits_of_float (Tensor.get_flat x i)) ))
    (Store.names store)

let first_mismatch a b =
  let rec go = function
    | [], [] -> None
    | (n, _) :: _, [] | [], (n, _) :: _ -> Some n
    | (n1, x) :: ra, (n2, y) :: rb ->
      if n1 <> n2 || x <> y then Some n1 else go (ra, rb)
  in
  go (a, b)

let clean_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

let ckpt_index f =
  if String.length f > 5 && String.sub f 0 5 = "ckpt." then
    int_of_string_opt (String.sub f 5 (String.length f - 5))
  else None

(* Chop the newest checkpoint in half, so the final resume must detect
   the corruption and fall back to an older one. *)
let truncate_newest dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | files -> (
    let newest =
      Array.to_list files
      |> List.filter_map (fun f ->
             Option.map (fun i -> (i, f)) (ckpt_index f))
      |> List.sort (fun (a, _) (b, _) -> compare b a)
    in
    match newest with
    | [] -> None
    | (_, f) :: _ ->
      let path = Filename.concat dir f in
      let len = (Unix.stat path).Unix.st_size in
      Unix.truncate path (len / 2);
      Some path)

let chaos_cmd =
  let run () target steps seed kills every keep spec dir plan_out
      corrupt_latest trace =
    if Parallel.domains () > 1 then begin
      (* kill cycles fork, and OCaml forbids fork once worker domains
         exist; chaos results are domain-count-invariant anyway *)
      Printf.eprintf "ppvi chaos: incompatible with --domains > 1\n";
      exit 1
    end;
    let key = Prng.key seed in
    let train ?persist () =
      match target with
      | `Coin ->
        let s, _, _ = Coin.train ~steps ~samples:2 ?persist key in
        s
      | `Cone ->
        let s, _ = Cone.train ~steps ?persist Cone.Elbo key in
        s
    in
    Printf.printf "chaos %s: %d steps, checkpoint every %d, %d kill cycle(s)\n%!"
      (match target with `Coin -> "coin" | `Cone -> "cone")
      steps every kills;
    let reference = store_bits (train ()) in
    let dir =
      match dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "ppvi-chaos-%d" (Unix.getpid ()))
    in
    clean_dir dir;
    let cfg = Persist.cfg ~every ~keep dir in
    let plan_for cycle =
      let spec' =
        let kill = Printf.sprintf "kill-in=1..%d" (max 1 (steps - 1)) in
        match spec with None -> kill | Some s -> s ^ " " ^ kill
      in
      match Fault.plan_of_string ~seed:(seed + (97 * cycle)) spec' with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf "ppvi: bad --fault spec: %s\n" msg;
        exit 1
    in
    let plans = List.init kills (fun i -> plan_for (i + 1)) in
    (match plan_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Printf.sprintf "{\"cycles\": [%s]}\n"
           (String.concat ", " (List.map Fault.plan_to_json plans)));
      close_out oc;
      Printf.printf "fault plans written to %s\n%!" path);
    List.iteri
      (fun i plan ->
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
          (* The child: train with checkpointing under the plan; the
             plan SIGKILLs it at its chosen step (unless a resumed run
             is already past that step). Never return to the parent's
             cmdliner driver. *)
          Fault.install plan;
          (try ignore (train ~persist:cfg ()) with _ -> ());
          Unix._exit 0
        | pid -> (
          let _, status = Unix.waitpid [] pid in
          let kill =
            match Fault.kill_step plan with
            | Some k -> string_of_int k
            | None -> "?"
          in
          match status with
          | Unix.WSIGNALED s when s = Sys.sigkill ->
            Printf.printf "cycle %d: killed at step %s, state on disk\n%!"
              (i + 1) kill
          | Unix.WEXITED 0 ->
            Printf.printf
              "cycle %d: run completed (kill step %s behind the resume \
               point)\n%!"
              (i + 1) kill
          | _ ->
            Printf.eprintf "ppvi chaos: unexpected child status\n";
            exit 1))
      plans;
    if corrupt_latest then (
      match truncate_newest dir with
      | Some path -> Printf.printf "truncated newest checkpoint %s\n%!" path
      | None -> ());
    (match trace with Some path -> open_trace path | None -> ());
    let final = store_bits (train ~persist:cfg ()) in
    (match trace with
    | Some _ ->
      Obs.flush ();
      Obs.shutdown ()
    | None -> ());
    match first_mismatch reference final with
    | None ->
      Printf.printf
        "chaos: PASS — final parameters bit-identical to the uninterrupted \
         run (%d tensors)\n"
        (List.length reference)
    | Some name ->
      Printf.eprintf
        "chaos: FAIL — parameter %S differs from the uninterrupted run\n"
        name;
      exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Crash-recovery harness: train a workload with rotated \
          checkpoints while a seeded fault plan SIGKILLs the process \
          mid-run (repeatedly), then resume and verify the final \
          parameters are bit-identical to an uninterrupted run. See \
          docs/RESILIENCE.md.")
    Term.(
      const (fun () -> run ())
      $ domains_term
      $ Arg.(
          required
          & pos 0 (some chaos_target_conv) None
          & info [] ~docv:"TARGET" ~doc:"coin|cone")
      $ steps_arg 60 $ seed_arg
      $ Arg.(
          value & opt int 2
          & info [ "kills" ] ~docv:"N"
              ~doc:"Number of SIGKILL-and-resume cycles.")
      $ Arg.(
          value & opt int 7
          & info [ "every" ] ~docv:"N" ~doc:"Checkpoint every $(docv) steps.")
      $ Arg.(
          value & opt int 3
          & info [ "keep" ] ~docv:"N" ~doc:"Checkpoint rotation depth.")
      $ Arg.(
          value
          & opt (some fault_spec_conv) None
          & info [ "fault" ] ~docv:"SPEC"
              ~doc:
                "Extra fault spec merged into each cycle's plan (the \
                 kill schedule is added automatically).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "dir" ] ~docv:"DIR"
              ~doc:
                "Checkpoint directory (default: a fresh temp directory; \
                 cleared before the first cycle).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "plan-out" ] ~docv:"FILE"
              ~doc:
                "Write the per-cycle fault plans as one JSON object (the \
                 CI artifact that makes a failing run replayable).")
      $ Arg.(
          value & flag
          & info [ "corrupt-latest" ]
              ~doc:
                "Truncate the newest checkpoint before the final resume, \
                 forcing the corruption-fallback path.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE"
              ~doc:
                "Stream the final resume's observability events to \
                 $(docv) as JSON Lines."))

(* info *)

let info_cmd =
  let run () =
    print_endline
      "ppvi: programmable variational inference (PLDI 2024 reproduction)";
    let count register =
      let store = Store.create () in
      register store (Prng.key 0);
      Store.parameter_count store
    in
    Printf.printf "workload parameter counts:\n";
    Printf.printf "  VAE   %6d\n" (count Vae.register);
    Printf.printf "  AIR   %6d\n" (count Air.register);
    Printf.printf "  SSVAE %6d\n" (count Ssvae.register);
    Printf.printf "  CVAE  %6d\n" (count Cvae.register);
    Printf.printf "data: %dx%d sprites, %dx%d AIR canvases (max %d objects)\n"
      Data.sprite_side Data.sprite_side Data.canvas_side Data.canvas_side
      Data.max_objects
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print the system inventory.")
    Term.(const run $ const ())

(* version *)

let version_cmd =
  let run () = print_endline Proto.version_string in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the build version and the serve wire-schema generation \
          (the same pair exchanged in the $(b,ppvi serve) handshake and \
          $(b,health) reply, so client/server mismatches fail loudly).")
    Term.(const run $ const ())

(* serve / client *)

let transport_term =
  let make socket host port =
    match (socket, port) with
    | Some path, None -> `Unix path
    | None, Some p -> `Tcp (host, p)
    | Some _, Some _ ->
      Printf.eprintf "ppvi: --socket and --port are mutually exclusive\n";
      exit 2
    | None, None -> `Unix "/tmp/ppvi.sock"
  in
  Term.(
    const make
    $ Arg.(
        value
        & opt (some string) None
        & info [ "socket" ] ~docv:"PATH"
            ~doc:
              "Serve (or connect) on a Unix-domain socket at $(docv) \
               (default /tmp/ppvi.sock).")
    $ Arg.(
        value
        & opt string "127.0.0.1"
        & info [ "host" ] ~docv:"ADDR"
            ~doc:"TCP address for --port (default 127.0.0.1).")
    $ Arg.(
        value
        & opt (some positive_int_conv) None
        & info [ "port" ] ~docv:"PORT" ~doc:"Serve (or connect) over TCP."))

let serve_fault_term =
  let make fault fault_seed =
    match fault with
    | None -> Fault.clear ()
    | Some spec -> (
      match Fault.plan_of_string ~seed:fault_seed spec with
      | Ok plan -> Fault.install plan
      | Error msg ->
        Printf.eprintf "ppvi: bad --fault spec: %s\n" msg;
        exit 1)
  in
  Term.(
    const make
    $ Arg.(
        value
        & opt (some fault_spec_conv) None
        & info [ "fault" ] ~docv:"SPEC"
            ~doc:
              "Install a deterministic fault-injection plan in the serving \
               path: io-error faults surface as $(b,fault) error replies at \
               admission and skipped checkpoint reloads; delay/oom faults \
               fire per executed batch (see docs/RESILIENCE.md).")
    $ Arg.(
        value & opt int 0
        & info [ "fault-seed" ] ~docv:"N"
            ~doc:"Seed for the --fault plan's own PRNG stream."))

let serve_cmd =
  let run () () transport () max_batch max_wait_us queue_bound params_root
      pid_file obs =
   socket_errors @@ fun () ->
    obs_setup obs;
    Printf.printf "%s\n" Proto.version_string;
    (match transport with
    | `Unix path -> Printf.printf "serving on unix socket %s\n" path
    | `Tcp (host, port) -> Printf.printf "serving on %s:%d\n" host port);
    Printf.printf
      "coalescing: max-batch %d, max-wait %.0fus, queue bound %d\n%!" max_batch
      max_wait_us queue_bound;
    Serve.run
      {
        Serve.transport;
        max_batch;
        max_wait_us;
        queue_bound;
        params_root;
        pid_file;
      };
    Printf.printf "drained cleanly\n";
    obs_gauges ();
    obs_finish obs
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the inference daemon: score/sample/elbo/grad requests over a \
          length-prefixed JSON protocol, coalescing concurrent same-model \
          requests into one batched execution (docs/SERVING.md). SIGTERM \
          drains gracefully: queued requests finish, later ones get \
          explicit $(b,draining) replies.")
    Term.(
      const run $ const () $ domains_term $ transport_term $ serve_fault_term
      $ Arg.(
          value & opt positive_int_conv 64
          & info [ "max-batch" ] ~docv:"N"
              ~doc:"Most requests coalesced into one batched execution.")
      $ Arg.(
          value & opt float 200.
          & info [ "max-wait-us" ] ~docv:"US"
              ~doc:
                "How long the executor lingers for more requests before \
                 running a non-full batch, in microseconds. 0 disables \
                 coalescing latency entirely.")
      $ Arg.(
          value & opt positive_int_conv 256
          & info [ "queue-bound" ] ~docv:"N"
              ~doc:
                "Admission bound: requests beyond this queue depth are shed \
                 with an $(b,overloaded) reply instead of queueing.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "params-dir" ] ~docv:"DIR"
              ~doc:
                "Warm-start each model $(i,m) from the rotated checkpoints \
                 in $(docv)/$(i,m) (Store.load_latest) and hot-reload its \
                 parameters when a newer $(b,ckpt.N) appears there.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "pid-file" ] ~docv:"FILE"
              ~doc:"Write the daemon pid to $(docv) (drain drills).")
      $ obs_term)

let client_cmd =
  let run () transport clients requests model seed check stats_only kill_after
      pid_file =
   socket_errors @@ fun () ->
    if stats_only then begin
      let conn = Serve.Client.connect transport in
      let version, schema, models = Serve.Client.server_info conn in
      Printf.printf "server %s (schema %d), models: %s\n" version schema
        (String.concat ", " models);
      (match Serve.Client.call conn Proto.Stats with
      | Proto.R_stats s -> print_endline (Obs.Json.to_string s)
      | _ -> prerr_endline "unexpected stats reply");
      Serve.Client.close conn
    end
    else begin
      let kill_after =
        match (kill_after, pid_file) with
        | Some n, Some pf -> (
          match int_of_string_opt (String.trim (In_channel.with_open_text pf In_channel.input_all)) with
          | Some pid -> Some (n, pid)
          | None ->
            Printf.eprintf "ppvi: cannot read a pid from %s\n" pf;
            exit 2)
        | Some _, None ->
          Printf.eprintf "ppvi: --kill-after requires --pid-file\n";
          exit 2
        | None, _ -> None
      in
      let report label r =
        Printf.printf
          "%s: sent %d ok %d overloaded %d draining %d deadline %d failed %d \
           lost %d in %.3fs\n"
          label r.Serve.lr_sent r.Serve.lr_ok r.Serve.lr_overloaded
          r.Serve.lr_draining r.Serve.lr_deadline r.Serve.lr_failed
          r.Serve.lr_lost r.Serve.lr_wall_s
      in
      let concurrent =
        Serve.run_load transport ~clients ~requests ~model ~seed ?kill_after ()
      in
      report "concurrent" concurrent;
      let failures = ref 0 in
      if concurrent.Serve.lr_sent = 0 then begin
        Printf.eprintf
          "ppvi client: no request was sent — is the server reachable?\n";
        incr failures
      end;
      if concurrent.Serve.lr_lost > 0 then begin
        Printf.eprintf
          "ppvi client: %d request(s) got no reply at all — a drain must \
           answer every accepted request\n"
          concurrent.Serve.lr_lost;
        incr failures
      end;
      if check then begin
        (* Sequential reference pass: one connection, one in-flight
           request, same global indices — every batch the server forms
           has a single row. Bit-identical replies are the coalescing
           correctness gate. *)
        let sequential =
          Serve.run_load transport ~clients:1 ~requests:(clients * requests)
            ~model ~seed ()
        in
        report "sequential" sequential;
        let n = Serve.mismatches sequential concurrent in
        if n > 0 then begin
          Printf.eprintf
            "ppvi client: %d reply mismatch(es) between the sequential and \
             concurrent passes\n"
            n;
          incr failures
        end
        else
          Printf.printf
            "bit-identity: %d replies identical across both passes\n"
            (List.length sequential.Serve.lr_values)
      end;
      if !failures > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Load-drive a running $(b,ppvi serve) daemon: N client threads \
          with one connection each, deterministic score/elbo request \
          streams, tallies of shed/drained/lost requests, an optional \
          sequential bit-identity check (--check), and a SIGTERM drain \
          drill (--kill-after with --pid-file).")
    Term.(
      const run $ const () $ transport_term
      $ Arg.(
          value & opt positive_int_conv 8
          & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
      $ Arg.(
          value & opt positive_int_conv 16
          & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
      $ Arg.(
          value & opt string "chain"
          & info [ "model" ] ~docv:"NAME"
              ~doc:"Servable model to target (coin, cone, chain).")
      $ Arg.(
          value & opt int 0
          & info [ "seed" ] ~docv:"N" ~doc:"Seed for the request stream.")
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "After the concurrent pass, run the same request stream \
                 sequentially and require bit-identical replies (exits \
                 non-zero on any mismatch).")
      $ Arg.(
          value & flag
          & info [ "stats" ]
              ~doc:
                "Just print the server's handshake info and its stats \
                 endpoint as JSON (the $(b,ppvi profile) dashboard \
                 companion), then exit.")
      $ Arg.(
          value
          & opt (some positive_int_conv) None
          & info [ "kill-after" ] ~docv:"N"
              ~doc:
                "SIGTERM the server (pid from --pid-file) after $(docv) \
                 replies: the drain drill. Every already-sent request must \
                 still get a reply — the tally's $(b,lost) column must \
                 stay 0.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "pid-file" ] ~docv:"FILE"
              ~doc:"The server's --pid-file (for --kill-after)."))

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "ppvi" ~version:Proto.build_version
             ~doc:"Programmable variational inference workloads.")
          [ cone_cmd; coin_cmd; regression_cmd; vae_cmd; air_cmd; profile_cmd;
            chaos_cmd; trace_lint_cmd; compile_cmd; check_cmd; info_cmd;
            version_cmd; serve_cmd; client_cmd ]))

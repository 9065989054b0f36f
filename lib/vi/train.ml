type report = {
  step : int;
  objective : float;
  anomalies : int;
  retries : int;
}

(* Shared guarded driver. [make_surrogate frame step key] builds the
   differentiable surrogate for one step; everything else — backward
   pass, anomaly scan, policy dispatch, snapshots, the optimizer update
   — is common to all loop flavors. On rollback the step counter jumps
   back to the snapshot step and already-collected reports past it are
   discarded (so the returned series is the committed trajectory). *)
(* Opt-in pre-flight: statically analyze the given targets before any
   optimization step runs. Diagnostics go to stderr; under [strict] an
   error-severity diagnostic aborts the run with
   [Check.Preflight_error] instead of letting training fail later (or
   silently optimize a -inf-density objective). *)
let run_preflight ~strict targets =
  match targets with
  | [] -> ()
  | _ ->
    Obs.span Obs.Preflight "train/preflight" (fun () ->
        let failing =
          List.filter
            (fun target ->
              let report = Check.analyze target in
              List.iter
                (fun d ->
                  (* Routed through the sink, not printed directly: a
                     console sink keeps the historical stderr lines, a
                     file sink turns them into "msg" events so
                     --json/--trace stderr stays machine-clean. *)
                  Obs.message Obs.Preflight
                    (Format.asprintf "[preflight] %a" Check.pp_diagnostic d))
                report.Check.diagnostics;
              Check.has_errors report)
            targets
        in
        if failing <> [] then begin
          Obs.message Obs.Preflight
            (Printf.sprintf
               "[preflight] %d of %d target(s) have error-severity diagnostics"
               (List.length failing) (List.length targets));
          if strict then
            raise
              (Check.Preflight_error
                 (Printf.sprintf
                    "pre-flight check failed on %d of %d target(s)"
                    (List.length failing) (List.length targets)))
        end)

(* Opt-in staging analysis: compile the named programs before step 0
   under a visible span ("compile/<id>" under "train/compile") and
   report PV501 refusals. Training itself runs on the interpreter. *)
let run_warm_compile targets =
  match targets with
  | [] -> ()
  | _ ->
    Obs.span Obs.Preflight "train/compile" (fun () ->
        List.iter
          (fun (id, packed) ->
            match Compile.plan_for ~id packed with
            | Compile.Compiled _ -> ()
            | Compile.Refused { Compile.r_reason; _ } ->
              Obs.message Obs.Preflight
                (Printf.sprintf
                   "[compile] %s refused (PV501), using interpreter: %s" id
                   r_reason))
          targets)

type shard_spec = {
  shards : int;
  remat : bool;
  make :
    Store.Frame.t -> step:int -> shard:int -> shards:int -> Prng.key -> Ad.t;
}

let single ?(remat = false) make =
  { shards = 1;
    remat;
    make = (fun frame ~step ~shard:_ ~shards:_ key -> make frame step key) }

(* Deterministic fixed-shape pairwise tree fold over [lo, hi): the
   reduction shape depends only on the shard count, never on the
   domain count or completion order, so sharded results are bit-
   identical whether the pool runs with 1 domain or many. *)
let rec tree_fold combine (arr : 'a array) lo hi =
  if hi - lo = 1 then arr.(lo)
  else
    let mid = lo + ((hi - lo + 1) / 2) in
    combine (tree_fold combine arr lo mid) (tree_fold combine arr mid hi)

(* Merge two shards' gradient lists by parameter name: names keep the
   left list's order (then right-only names in right order), matched
   names add tensors. A name present on one side only passes through
   unchanged — materializing a zero for the missing side would both
   allocate and perturb bits (-0.0 + 0.0 is 0.0). *)
let merge_grads left right =
  let pending = Hashtbl.create 16 in
  List.iter (fun (n, g) -> Hashtbl.replace pending n g) right;
  let merged =
    List.map
      (fun (n, g) ->
        match Hashtbl.find_opt pending n with
        | Some g2 ->
          Hashtbl.remove pending n;
          (n, Tensor.add g g2)
        | None -> (n, g))
      left
  in
  merged @ List.filter (fun (n, _) -> Hashtbl.mem pending n) right

(* Data-parallel sharding: one independent forward + backward per
   shard (own frame, own key [fold_in key_step i], own tape), scheduled
   on the domain pool, combined by fixed-shape tree folds — so the
   result is bit-identical for every domain count. Shard blocks run
   with observability suppressed (the recorder is main-domain-only)
   and marked [Adev.in_shard], so a REINFORCE-baseline site raises
   [Adev.Unshardable_site] instead of sharing its cell. *)
let run_shards ~store ~spec ~step ~nshards key_step =
  let values = Array.make nshards 0. in
  let grads = Array.make nshards [] in
  Parallel.run ~blocks:nshards (fun i ->
      Obs.suppress (fun () ->
          Adev.in_shard (fun () ->
              let frame = Store.Frame.make store in
              let build () =
                spec.make frame ~step ~shard:i ~shards:nshards
                  (Prng.fold_in key_step i)
              in
              let surrogate =
                if spec.remat then Ad.checkpoint build else build ()
              in
              Ad.backward surrogate;
              values.(i) <- Tensor.to_scalar (Ad.value surrogate);
              grads.(i) <- Store.Frame.grads frame)));
  (tree_fold ( +. ) values 0 nshards, tree_fold merge_grads grads 0 nshards)

let fit_generic ~store ~optim ~direction ~guard ~persist ~on_step ~steps
    ~spec key =
  let g = match guard with Some g -> g | None -> Guard.create () in
  let reports = ref [] in
  let step = ref 0 in
  (* Crash-exact resume: when a checkpoint directory is configured and
     holds a readable checkpoint, restore parameters, optimizer moments,
     and guard counters, and continue from the recorded step — the
     per-step [fold_in] key discipline makes the replayed suffix
     bit-identical to the run the crash interrupted. *)
  (match persist with
  | None -> ()
  | Some cfg -> (
    match Persist.load_into cfg ~store ~optim ~guard:g with
    | None -> ()
    | Some { Persist.step = resumed; path } ->
      Obs.message Obs.Fault
        (Printf.sprintf "train: resumed from %s at step %d" path resumed);
      Obs.incr "train/resumes";
      step := resumed));
  (* Periodic checkpoints go through a background writer (the step
     thread only snapshots and serializes). It is drained, so its last
     error surfaces, before [fit] returns, and joined however [fit]
     exits. *)
  let writer = Option.map Persist.writer persist in
  Fun.protect ~finally:(fun () -> Option.iter Persist.close writer)
  @@ fun () ->
  (* Save after the [every]-th committed step; !step is then the next
     step to run, which is what the checkpoint records. *)
  let checkpoint () =
    match (persist, writer) with
    | Some cfg, Some w ->
      if !step > 0 && !step mod cfg.every = 0 then
        Persist.submit w ~step:!step ~store ~optim ~guard:g;
      Persist.yield w
    | _ -> ()
  in
  while !step < steps do
    if Guard.due_snapshot g ~step:!step then
      Guard.take_snapshot g ~step:!step ~store ~optim;
    let key_run = Guard.active_key g key in
    (* Manual start/stop spans (no closures): a disabled run executes
       the exact instruction stream the unobserved loop did. *)
    let live = Obs.live () in
    let nodes0 = if live then Ad.node_count () else 0 in
    let minor0 = if live then Gc.minor_words () else 0. in
    (* Per-step live-tape statistics: reset from this quiescent point
       so the peak gauge (and the remat acceptance tests) measure one
       step's high-water mark. *)
    Ad.reset_live_stats ();
    let nshards = Stdlib.max 1 spec.shards in
    let computed =
      match
        (* Fault-injection hook (one branch when inactive): may delay
           the step, raise Out_of_memory (absorbed below), or SIGKILL
           the process outright. Runs on the coordinating domain, once
           per step, in both the sequential and the sharded path. *)
        if Fault.active () then Fault.on_step ~step:!step;
        let key_step = Prng.fold_in key_run !step in
        if nshards = 1 then begin
          let t_fwd = if live then Obs.start () else 0. in
          let frame = Store.Frame.make store in
          let build () =
            spec.make frame ~step:!step ~shard:0 ~shards:1 key_step
          in
          let surrogate = if spec.remat then Ad.checkpoint build else build () in
          if live then Obs.stop Obs.Grad "train/forward" t_fwd;
          let t_bwd = if live then Obs.start () else 0. in
          Ad.backward surrogate;
          if live then begin
            Obs.stop Obs.Grad "train/backward" t_bwd;
            Obs.hist "train/objective" (Tensor.to_scalar (Ad.value surrogate))
          end;
          (Tensor.to_scalar (Ad.value surrogate), Store.Frame.grads frame)
        end
        else begin
          let t_fwd = if live then Obs.start () else 0. in
          let objective, reduced =
            run_shards ~store ~spec ~step:!step ~nshards key_step
          in
          if live then begin
            Obs.stop Obs.Grad "train/forward" t_fwd;
            Obs.hist "train/objective" objective
          end;
          (objective, reduced)
        end
      with
      | pair -> Some pair
      | exception Out_of_memory when Fault.active () ->
        (* Graceful degradation under injected allocation failure: drop
           this step's update (parameters and PRNG discipline are
           untouched — later steps key off the step index) and keep
           training. Only fault-injected OOM is absorbed; a real one
           still propagates (in the sharded path [Parallel.run] still
           executes every block and re-raises the first exception). *)
        Obs.incr "train/oom_skipped";
        None
    in
    if live then begin
      Obs.gauge "train/tape_nodes" (float_of_int (Ad.node_count () - nodes0));
      Obs.gauge "train/peak_live_nodes" (float_of_int (Ad.peak_live_nodes ()));
      Obs.gauge "train/minor_words" (Gc.minor_words () -. minor0)
    end;
    match computed with
    | None ->
      incr step;
      checkpoint ()
    | Some (objective, grads) -> (
      let t_guard = if live then Obs.start () else 0. in
      let anomalies = Guard.scan ~step:!step ~objective ~grads in
      let verdict = Guard.observe g ~step:!step ~store ~optim anomalies in
      if live then Obs.stop Obs.Guard "train/guard" t_guard;
      match verdict with
      | Guard.Restart_from resume ->
        reports := List.filter (fun r -> r.step < resume) !reports;
        step := resume;
        (* Make the rollback durable before the next step: the retry
           counter feeds the replay's PRNG stream, so a crash
           mid-replay must resume with the post-rollback state, not a
           pre-rollback image. *)
        (match (persist, writer) with
        | Some cfg, Some w ->
          Persist.drain w;
          Persist.save cfg ~step:resume ~store ~optim ~guard:g
        | _ -> ())
      | Guard.Proceed | Guard.Skip ->
        (* Under [Skip] the non-finite gradients are dropped (and counted)
           inside [Optim.step]; the finite remainder still applies, which
           preserves the historical skip-and-continue behavior. *)
        let t_opt = if live then Obs.start () else 0. in
        Optim.step ?clip_norm:(Guard.clip_norm g) optim direction store grads;
        if live then begin
          Obs.stop Obs.Optim "train/optim" t_opt;
          Obs.incr "train/steps"
        end;
        let report =
          { step = !step;
            objective;
            anomalies = Guard.anomaly_count g;
            retries = Guard.retry_count g }
        in
        on_step report;
        reports := report :: !reports;
        incr step;
        checkpoint ())
  done;
  Option.iter Persist.drain writer;
  List.rev !reports

let fit_spec ~store ~optim ?(direction = Optim.Ascend) ?guard ?persist
    ?(preflight = []) ?(preflight_strict = false) ?(compiled = [])
    ?(on_step = fun _ -> ()) ~steps ~spec key =
  run_preflight ~strict:preflight_strict preflight;
  run_warm_compile compiled;
  fit_generic ~store ~optim ~direction ~guard ~persist ~on_step ~steps ~spec
    key

let fit ~store ~optim ?(direction = Optim.Ascend) ?(samples = 1)
    ?(remat = false) ?guard ?persist ?(preflight = [])
    ?(preflight_strict = false) ?(compiled = []) ?(on_step = fun _ -> ())
    ~steps ~objective key =
  run_preflight ~strict:preflight_strict preflight;
  run_warm_compile compiled;
  (* [remat] barriers sit per sample inside [expectation_mean] (not
     around the whole step), so the peak live tape holds one sample's
     segment. *)
  fit_generic ~store ~optim ~direction ~guard ~persist ~on_step ~steps
    ~spec:
      (single (fun frame step key_step ->
           Adev.expectation_mean ~remat ~samples (objective frame step)
             key_step))
    key

let fit_batch ~store ~optim ?(direction = Optim.Ascend) ?(shards = 1)
    ?(remat = false) ?guard ?persist ?(preflight = [])
    ?(preflight_strict = false) ?(compiled = []) ?(on_step = fun _ -> ())
    ~steps ~objectives key =
  run_preflight ~strict:preflight_strict preflight;
  run_warm_compile compiled;
  (* Data-parallel across the per-datum objectives: shard [i] takes the
     contiguous range [lo, hi) of the list, builds each datum's
     surrogate under its historical key [fold_in key_step j] (the
     global datum index, so shards = 1 reproduces the unsharded stream
     bit-for-bit), and contributes [sum / n_total]; the shard partials
     tree-reduce in the driver. *)
  let spec =
    if shards <= 1 then
      single ~remat (fun frame step key_step ->
          let objs = objectives frame step in
          let n = Stdlib.max 1 (List.length objs) in
          let surrogates =
            List.mapi
              (fun i obj -> Adev.expectation obj (Prng.fold_in key_step i))
              objs
          in
          Ad.scale (1. /. float_of_int n) (Ad.add_list surrogates))
    else
      { shards;
        remat;
        make =
          (fun frame ~step ~shard ~shards shard_key ->
            (* [shard_key] is the driver's [fold_in key_step shard];
               each datum folds its global index into it. The stream
               is a function of the shard count (shards > 1 is a
               different — equally valid — estimator draw than
               shards = 1), and bit-reproducible across domain counts
               for any fixed shard count. *)
            let objs = objectives frame step in
            let n = Stdlib.max 1 (List.length objs) in
            let lo = shard * n / shards and hi = (shard + 1) * n / shards in
            let surrogates =
              List.filteri (fun i _ -> i >= lo && i < hi) objs
              |> List.mapi (fun j obj ->
                     Adev.expectation obj (Prng.fold_in shard_key (lo + j)))
            in
            match surrogates with
            | [] -> Ad.scalar 0.
            | _ ->
              Ad.scale (1. /. float_of_int n) (Ad.add_list surrogates)) }
  in
  fit_generic ~store ~optim ~direction ~guard ~persist ~on_step ~steps ~spec
    key

let fit_batched ~store ~optim ?(direction = Optim.Ascend) ?guard ?persist
    ?(preflight = []) ?(preflight_strict = false) ?(compiled = [])
    ?(on_step = fun _ -> ()) ~steps ~objective key =
  run_preflight ~strict:preflight_strict preflight;
  run_warm_compile compiled;
  fit_generic ~store ~optim ~direction ~guard ~persist ~on_step ~steps
    ~spec:
      (single (fun frame step key_step ->
           let m, obj = objective frame step in
           let vec = Adev.expectation obj key_step in
           Ad.scale (1. /. float_of_int (Stdlib.max 1 m)) (Ad.sum vec)))
    key

let fit_surrogate ~store ~optim ?(direction = Optim.Ascend) ?guard ?persist
    ?(preflight = []) ?(preflight_strict = false) ?(compiled = [])
    ?(on_step = fun _ -> ()) ~steps ~surrogate key =
  run_preflight ~strict:preflight_strict preflight;
  run_warm_compile compiled;
  fit_generic ~store ~optim ~direction ~guard ~persist ~on_step ~steps
    ~spec:(single (fun frame step key_step -> surrogate frame step key_step))
    key

(* One step's forward/backward(s) for a spec, outside the training
   loop — no guard, no optimizer, no observability. Returns the
   objective value and the tree-reduced gradients under exactly the
   driver's key discipline ([fold_in key step], then [fold_in _ shard]
   when sharded), so the memory bench and the determinism tests
   exercise the same code shape the driver runs. *)
let shard_step ~store ~spec ~step key =
  let key_step = Prng.fold_in key step in
  let nshards = Stdlib.max 1 spec.shards in
  if nshards = 1 then begin
    let frame = Store.Frame.make store in
    let build () = spec.make frame ~step ~shard:0 ~shards:1 key_step in
    let surrogate = if spec.remat then Ad.checkpoint build else build () in
    Ad.backward surrogate;
    (Tensor.to_scalar (Ad.value surrogate), Store.Frame.grads frame)
  end
  else run_shards ~store ~spec ~step ~nshards key_step

let eval ~store ?(samples = 100) ~objective key =
  let frame = Store.Frame.make store in
  Adev.estimate ~samples (objective frame) key

(* The two training workloads: each sub-run trains from a fresh store
   in a fresh child process (cold plan caches and pools, one process
   per peak-RSS reading); the traced run replays [Train.fit]'s step as
   explicit public calls in-process, next to an untraced [Train.fit] at
   the same key. *)

open Common

(* What the benchmark needs to know about a training workload. ['d] is
   one step's input (a minibatch, or nothing). *)
type 'd program = {
  domains : int;
  lr : float;
  persist_every : int option;
  register : Store.t -> Prng.key -> unit;
  data : Prng.key -> int -> 'd;  (** run key, step *)
  objective : Store.Frame.t -> 'd -> Ad.t Adev.t;
  warm : Prng.key -> Store.t -> (string * Gen.packed) list;
  final_objective : Prng.key -> Store.t -> float;
  target : float option;
      (** a mean objective over [window] steps a run must reach *)
  floor : float;  (** a trained run's final objective must exceed it *)
  automated : Store.Frame.t -> 'd -> Prng.key -> Ad.t;
  hand : Store.Frame.t -> 'd -> Prng.key -> Ad.t;
  stage : ('d -> Store.Frame.t -> unit) option;
      (** uncached staging of the workload's programs *)
  kernels : (Prng.key -> unit -> unit) option;
      (** the tensor kernels one step runs, outside AD *)
  steps : int;  (** budget of an untraced sub-run *)
  trace_steps : int;  (** budget of a traced sub-run *)
  pairs : int;  (** comparator pairs for [overhead_ratio] *)
}

type packed = P : 'd program -> packed

let window = 20

(* ------------------------------------------------------------------ *)
(* Workloads *)

let vae_batch = 256

let vae_images key step = fst (Data.digit_batch (Prng.fold_in key (10000 + step)) vae_batch)

(* The five dense-layer matmuls of one VAE step (forward, and both
   backward products) at batch 256, plus the fused likelihood, on
   inputs drawn once. *)
let vae_kernels key =
  let t k shape = Prng.normal_tensor (Prng.fold_in key k) shape in
  let layers =
    List.mapi
      (fun i (d_in, d_out) ->
        ( t (3 * i) [| vae_batch; d_in |],
          t ((3 * i) + 1) [| d_in; d_out |],
          t ((3 * i) + 2) [| vae_batch; d_out |] ))
      [ (Data.sprite_dim, Vae.hidden_dim);
        (Vae.hidden_dim, Vae.latent_dim);
        (Vae.hidden_dim, Vae.latent_dim);
        (Vae.latent_dim, Vae.hidden_dim);
        (Vae.hidden_dim, Data.sprite_dim) ]
  in
  let images = vae_images key 0 in
  let logits = Ad.const (t 99 [| vae_batch; Data.sprite_dim |]) in
  fun () ->
    List.iter
      (fun (x, w, g) ->
        ignore (Tensor.matmul x w);
        ignore (Tensor.matmul_t g w);
        ignore (Tensor.t_matmul x g))
      layers;
    ignore (Ad.bernoulli_logits_scores ~x:images logits)

let vae_programs frame images =
  [ ("vae/model", Gen.Packed (Vae.model frame images));
    ("vae/guide", Gen.Packed (Vae.guide frame images)) ]

let vae =
  { domains = 2;
    lr = 3e-3;
    persist_every = Some 25;
    register = Vae.register;
    data = vae_images;
    objective = (fun frame images -> Vae.elbo_per_datum ~compiled:true frame images);
    warm = (fun key store -> vae_programs (Store.Frame.make store) (vae_images key 0));
    final_objective =
      (fun key store ->
        let held = fst (Data.digit_batch (Prng.fold_in key 99_999) vae_batch) in
        Train.eval ~store ~samples:8
          ~objective:(fun frame -> Vae.elbo_per_datum ~compiled:true frame held)
          (Prng.fold_in key 77_777));
    target = Some (-35.);
    floor = -40.;
    automated =
      (fun frame images key ->
        Adev.expectation (Vae.elbo_per_datum ~compiled:true frame images) key);
    hand = Hand.vae_surrogate;
    stage =
      Some
        (fun images frame ->
          List.iter
            (fun (id, packed) -> ignore (Compile.compile ~id:("ledger/" ^ id) packed))
            (vae_programs frame images));
    kernels = Some vae_kernels;
    steps = 200;
    trace_steps = 100;
    pairs = 200 }

let cone_kind = Cone.Diwhvi (5, 5)

let cone =
  { domains = 1;
    lr = 0.05;
    persist_every = None;
    register = Cone.register;
    data = (fun _ _ -> ());
    objective = (fun frame () -> Cone.objective cone_kind frame);
    warm = (fun _ _ -> []);
    final_objective =
      (fun key store -> Cone.final_value ~samples:2000 store cone_kind (Prng.fold_in key 77_777));
    target = None;
    floor = -6.;
    automated =
      (fun frame () key -> Adev.expectation (Cone.objective cone_kind frame) key);
    hand = (fun frame () key -> Hand.cone_surrogate ~particles:5 ~aux:5 frame key);
    stage = None;
    kernels = None;
    steps = 1000;
    trace_steps = 400;
    pairs = 2000 }

(* Smoke runs shrink every size and skip the quality checks, which
   need the full budget. *)
let shrink ~smoke prog =
  if smoke then
    { prog with steps = 30; trace_steps = 6; pairs = 4; target = None; floor = Float.neg_infinity }
  else prog

let tail_samples ~smoke = if smoke then 0 else 1000

(* ------------------------------------------------------------------ *)
(* One untraced training run, exactly as the library's trainers run it *)

type fit = {
  times : float array;  (** wall clock at each committed step *)
  objectives : float array;
  anomalies : int;
  store : Store.t;
}

let persist_cfg prog =
  Option.map (fun every -> Persist.cfg ~every ~keep:3 (work_path "ckpt")) prog.persist_every

let cleanup persist = Option.iter (fun cfg -> rm_rf cfg.Persist.dir) persist

let fit prog ~key ~steps =
  let store = Store.create () in
  prog.register store key;
  let optim = Optim.adam ~lr:prog.lr () in
  let persist = persist_cfg prog in
  let times = Array.make steps nan and objectives = Array.make steps nan in
  let reports =
    Fun.protect
      ~finally:(fun () -> cleanup persist)
      (fun () ->
        Train.fit ~store ~optim ?persist ~compiled:(prog.warm key store) ~steps
          ~on_step:(fun r ->
            times.(r.Train.step) <- now ();
            objectives.(r.Train.step) <- r.Train.objective)
          ~objective:(fun frame step -> prog.objective frame (prog.data key step))
          key)
  in
  let anomalies = match List.rev reports with r :: _ -> r.Train.anomalies | [] -> 0 in
  { times; objectives; anomalies; store }

(* Sub-run [sub] of a run at [seed] trains on its own key, so the
   run's medians average over several draws of the workload's inputs. *)
let run_key seed sub = Prng.fold_in (Prng.key seed) sub

(* The child side of a sub-run: train, then report on stdout. *)
let child (P prog) ~seed ~sub ~steps ~full =
  Parallel.set_domains prog.domains;
  let key = run_key seed sub in
  let f = fit prog ~key ~steps in
  let final = if full then prog.final_objective key f.store else 0. in
  print_endline
    (J.to_string
       (J.Obj
          [ ("times", floats (Array.to_list f.times));
            ("objectives", bits (Array.to_list f.objectives));
            ("anomalies", int f.anomalies);
            ("final", num final);
            ("rss_mb", num (peak_rss_mb 0)) ]))

type sub_run = {
  setup : float;  (** spawn to the first committed step *)
  steps_at : float list;
  objs : float list;
  bad_steps : int;
  final : float;
  rss : float;
}

let launch name ~seed ~sub ~steps ~full =
  let t_spawn, out =
    run_self
      [ "child"; name; string_of_int seed; string_of_int sub; string_of_int steps;
        (if full then "1" else "0") ]
  in
  let j = parse_line out in
  let times = to_floats (field "times" j) in
  { setup = List.hd times -. t_spawn;
    steps_at = times;
    objs = to_bits (field "objectives" j);
    bad_steps = int_of_float (to_num (field "anomalies" j));
    final = to_num (field "final" j);
    rss = to_num (field "rss_mb" j) }

let intervals times =
  match times with
  | [] -> []
  | t0 :: rest ->
    List.rev (snd (List.fold_left (fun (prev, acc) t -> (t, (t -. prev) :: acc)) (t0, []) rest))

(* Seconds from the first committed step to the last. *)
let budget_time r = List.nth r.steps_at (List.length r.steps_at - 1) -. List.hd r.steps_at

(* The first 15% of a sub-run's steps run while the heap and the buffer
   pools still grow, and their page faults on fresh memory cost more or
   less with the host's memory state (a cone sub-run has 14-22 pauses of
   about 5 ms in its first 130 steps, none later). Step latencies are
   taken after them; the budget's wall time keeps them. *)
let warmup prog = prog.steps * 15 / 100

let steady_intervals prog r = List.filteri (fun i _ -> i >= warmup prog) (intervals r.steps_at)

(* Whether the mean objective over some [window] consecutive steps
   reaches [target]. *)
let reaches target objs =
  let objs = Array.of_list objs in
  let rec scan k sum =
    k < Array.length objs
    &&
    let sum = sum +. objs.(k) -. if k >= window then objs.(k - window) else 0. in
    (k >= window - 1 && sum /. float_of_int window >= target) || scan (k + 1) sum
  in
  scan 0 0.

(* ------------------------------------------------------------------ *)
(* Checks and comparators shared by both modes *)

(* Hand-coded vs automated one-sample estimates on fixed parameters,
   data and keys, so the verdict is deterministic. *)
let agreement prog t =
  let key = Prng.key 20240615 in
  let store = Store.create () in
  prog.register store key;
  let data = prog.data key 0 in
  let est build i =
    let frame = Store.Frame.make store in
    Ad.to_float (build frame data (Prng.fold_in key i))
  in
  let ok, summary = Hand.agree ~keys:64 ~hand:(est prog.hand) ~automated:(est prog.automated) in
  Printf.eprintf "ledger: comparator agreement: %s\n%!" summary;
  check t ok ("hand-coded estimator disagrees with the automated one: " ^ summary)

type pair_times = {
  auto_fwd : float list;
  auto_bwd : float list;
  hand_fwd : float list;
  hand_bwd : float list;
}

(* [n] interleaved forward+backward pairs of the automated and the
   hand-coded estimator on one fixed input, alternating which goes
   first. *)
let pairs prog ~key ~n =
  let store = Store.create () in
  prog.register store key;
  let data = prog.data key 0 in
  let once build k =
    let t0 = now () in
    let frame = Store.Frame.make store in
    let s = build frame data k in
    let t1 = now () in
    Ad.backward s;
    ignore (Store.Frame.grads frame);
    (t1 -. t0, now () -. t1)
  in
  ignore (once prog.automated key);
  ignore (once prog.hand key);
  let runs =
    List.init n (fun i ->
        let k = Prng.fold_in key i in
        if i mod 2 = 0 then
          let a = once prog.automated k in
          (a, once prog.hand k)
        else
          let h = once prog.hand k in
          (once prog.automated k, h))
  in
  { auto_fwd = List.map (fun ((f, _), _) -> f) runs;
    auto_bwd = List.map (fun ((_, b), _) -> b) runs;
    hand_fwd = List.map (fun (_, (f, _)) -> f) runs;
    hand_bwd = List.map (fun (_, (_, b)) -> b) runs }

(* The median over pairs of the automated-to-hand-coded time ratio:
   a pair runs back to back, so host load cancels. *)
let overhead_ratio p =
  median
    (List.map2 ( /. )
       (List.map2 ( +. ) p.auto_fwd p.auto_bwd)
       (List.map2 ( +. ) p.hand_fwd p.hand_bwd))

(* ------------------------------------------------------------------ *)
(* End-to-end run (tracing off) *)

let e2e name (P prog) ~smoke ~seed ~seconds t =
  let prog = shrink ~smoke prog in
  Parallel.set_domains prog.domains;
  agreement prog t;
  (* Sub-runs repeat until the time is up and the tail has at least
     [tail_samples] steps, so at least ten lie above the p99. A cold
     start at the same key runs before each, so the set-up samples
     spread over the run instead of sharing one moment's host load. *)
  let t_end = now () +. seconds in
  let rec loop sub acc =
    if
      sub > 0
      && now () >= t_end
      && sub * (prog.steps - 1 - warmup prog) >= tail_samples ~smoke
    then List.rev acc
    else
      let c = launch name ~seed ~sub ~steps:1 ~full:false in
      loop (sub + 1) ((c, launch name ~seed ~sub ~steps:prog.steps ~full:true) :: acc)
  in
  let subs = loop 0 [] in
  let runs = List.map snd subs in
  let n = List.length runs in
  let cold =
    List.map fst subs
    @ List.init
        (Stdlib.max 0 (cold_starts ~smoke - n))
        (fun k -> launch name ~seed ~sub:(n + k) ~steps:1 ~full:false)
  in
  (* A cold start and the full run with the same key run the same
     first step in different processes. *)
  List.iter
    (fun (c, r) ->
      check t (same_bits (List.hd c.objs) (List.hd r.objs))
        "a cold start's first step differs from the full run's")
    subs;
  List.iter
    (fun r ->
      attempt t (List.length r.objs);
      fail t ~bad:r.bad_steps "guard anomalies during training";
      check t
        (Float.is_finite r.final && r.final > prog.floor)
        (Printf.sprintf "final objective %g is not above %g" r.final prog.floor);
      Option.iter
        (fun target ->
          check t (reaches target r.objs)
            (Printf.sprintf "the objective never reached %g" target))
        prog.target)
    runs;
  let p = pairs prog ~key:(run_key seed 0) ~n:prog.pairs in
  attempt t (2 * prog.pairs);
  (* Timings are taken from the least-disturbed sub-run, which filters
     bursts of interference from other tenants of the host; the tail
     needs every sample. *)
  [ ("setup_s", median (List.map (fun r -> r.setup) (cold @ runs)), "s");
    ("time_to_result_s", minimum (List.map budget_time runs), "s");
    ( "latency_p50_ms",
      1000. *. minimum (List.map (fun r -> median (steady_intervals prog r)) runs),
      "ms" );
    ( "latency_p99_ms",
      1000. *. quantile (List.concat_map (steady_intervals prog) runs) 0.99,
      "ms" );
    ("overhead_ratio", overhead_ratio p, "ratio");
    ("loss_nats", -.median (List.map (fun r -> r.final) runs), "nats");
    ("peak_rss_mb", median (List.map (fun r -> r.rss) runs), "MB") ]

(* ------------------------------------------------------------------ *)
(* Traced run *)

type replayed = {
  r_objectives : float array;
  r_nodes : int;  (** AD nodes built *)
  r_saves : int;
  r_jobs : int;  (** [Parallel.run] calls *)
  r_parallel : int;  (** of which dispatched to the pool *)
  r_minor_words : float;
  r_major_words : float;
}

(* [Train.fit]'s step with the default guard and one shard, as
   explicit public calls, each under a span whose parent is the
   step's. *)
let replay prog rc ~run ~key ~steps =
  let store = Store.create () in
  prog.register store key;
  let optim = Optim.adam ~lr:prog.lr () in
  let guard = Guard.create () in
  let persist = persist_cfg prog in
  Option.iter (fun cfg -> ignore (Persist.load_into cfg ~store ~optim ~guard)) persist;
  List.iter (fun (id, packed) -> ignore (Compile.plan_for ~id packed)) (prog.warm key store);
  let objectives = Array.make steps nan in
  let nodes = ref 0 and saves = ref 0 in
  let jobs0 = Parallel.jobs_run () and par0 = Parallel.jobs_parallel () in
  let gc0 = Gc.quick_stat () in
  Fun.protect
    ~finally:(fun () -> cleanup persist)
    (fun () ->
      for step = 0 to steps - 1 do
        let root = Spans.enter rc ~run "step" in
        let span name f = Spans.within rc ~run ~parent:root.Spans.id name f in
        if Guard.due_snapshot guard ~step then
          span "guard.snapshot" (fun () -> Guard.take_snapshot guard ~step ~store ~optim);
        let key_step =
          span "guard.key" (fun () -> Prng.fold_in (Guard.active_key guard key) step)
        in
        Ad.reset_live_stats ();
        let data = span "data.batch" (fun () -> prog.data key step) in
        let n0 = Ad.node_count () in
        let frame, surrogate =
          span "adev.forward" (fun () ->
              let frame = Store.Frame.make store in
              (frame, Adev.expectation_mean ~samples:1 (prog.objective frame data) key_step))
        in
        let objective, grads =
          span "ad.backward" (fun () ->
              Ad.backward surrogate;
              (Tensor.to_scalar (Ad.value surrogate), Store.Frame.grads frame))
        in
        nodes := !nodes + Ad.node_count () - n0;
        (match
           span "guard.check" (fun () ->
               Guard.observe guard ~step ~store ~optim (Guard.scan ~step ~objective ~grads))
         with
        | Guard.Proceed | Guard.Skip -> ()
        | Guard.Restart_from _ -> failwith "replay: the default guard rolled back");
        span "optim.step" (fun () ->
            Optim.step ?clip_norm:(Guard.clip_norm guard) optim Optim.Ascend store grads);
        objectives.(step) <- objective;
        (match persist with
        | Some cfg when (step + 1) mod cfg.Persist.every = 0 ->
          incr saves;
          span "persist.save" (fun () -> Persist.save cfg ~step:(step + 1) ~store ~optim ~guard)
        | _ -> ());
        Spans.leave rc root
      done);
  let gc1 = Gc.quick_stat () in
  { r_objectives = objectives;
    r_nodes = !nodes;
    r_saves = !saves;
    r_jobs = Parallel.jobs_run () - jobs0;
    r_parallel = Parallel.jobs_parallel () - par0;
    r_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    r_major_words = gc1.Gc.major_words -. gc0.Gc.major_words }

let timed_median ~n f =
  f ();
  median
    (List.init n (fun _ ->
         let t0 = now () in
         f ();
         now () -. t0))

let traced (P prog) ~smoke ~seed ~seconds ~spans_path t =
  let prog = shrink ~smoke prog in
  Parallel.set_domains prog.domains;
  agreement prog t;
  let key0 = run_key seed 0 in
  let p = pairs prog ~key:key0 ~n:(Stdlib.max 2 (prog.pairs / 4)) in
  attempt t (2 * List.length p.auto_fwd);
  let kernels_ms =
    match prog.kernels with
    | Some k -> 1000. *. timed_median ~n:20 (k key0)
    | None -> 0.
  in
  let stage_ms =
    match prog.stage with
    | Some stage ->
      let data = prog.data key0 0 in
      let store = Store.create () in
      prog.register store key0;
      1000. *. timed_median ~n:5 (fun () -> stage data (Store.Frame.make store))
    | None -> 0.
  in
  (* Alternate untraced and traced sub-runs at the same key: the first
     gives the step time without tracing, the pair must agree bit for
     bit. *)
  let rc = Spans.create () in
  let t_end = now () +. seconds in
  let rec loop sub untraced acc =
    if sub > 0 && now () >= t_end then (untraced, acc)
    else begin
      let key = run_key seed sub in
      let f = fit prog ~key ~steps:prog.trace_steps in
      let r = replay prog rc ~run:sub ~key ~steps:prog.trace_steps in
      attempt t (2 * prog.trace_steps);
      fail t ~bad:f.anomalies "guard anomalies during training";
      check t
        (Array.for_all2 same_bits r.r_objectives f.objectives)
        "traced replay objectives differ from Train.fit's (Int64)";
      loop (sub + 1) (intervals (Array.to_list f.times) @ untraced) (r :: acc)
    end
  in
  let untraced, replays = loop 0 [] [] in
  Spans.write rc spans_path;
  check t (Result.is_ok (Obs.validate_jsonl spans_path)) "the span file does not lint";
  let spans = Spans.all rc in
  let self = Spans.self_by_name spans in
  let steps = List.filter (fun s -> s.Spans.name = "step") spans in
  (* Step 0 of a sub-run has no untraced interval to compare with. *)
  let first = Hashtbl.create 16 in
  List.iter
    (fun s -> if not (Hashtbl.mem first s.Spans.run) then Hashtbl.add first s.Spans.run s)
    steps;
  let later_steps =
    List.filter_map
      (fun s -> if Hashtbl.find first s.Spans.run == s then None else Some (Spans.duration s))
      steps
  in
  let total = List.fold_left (fun acc s -> acc +. Spans.duration s) 0. steps in
  let n_steps = float_of_int (List.length steps) in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 replays) in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0. replays in
  let per_step name = 1000. *. Spans.self_of self name /. n_steps in
  let saves = sum (fun r -> r.r_saves) and jobs = sum (fun r -> r.r_jobs) in
  [ ("data.batch_ms", per_step "data.batch", "ms");
    ("adev.forward_ms", per_step "adev.forward", "ms");
    ("ad.backward_ms", per_step "ad.backward", "ms");
    ("ad.tape_nodes", sum (fun r -> r.r_nodes) /. n_steps, "count");
    ( "vi.guard_ms",
      per_step "guard.snapshot" +. per_step "guard.key" +. per_step "guard.check",
      "ms" );
    ("vi.optim_ms", per_step "optim.step", "ms");
    ( "vi.persist_ms",
      (if saves = 0. then 0. else 1000. *. Spans.self_of self "persist.save" /. saves),
      "ms" );
    ("vi.persist_share", Spans.self_of self "persist.save" /. total, "ratio");
    ("hand.forward_ms", 1000. *. median p.hand_fwd, "ms");
    ("hand.backward_ms", 1000. *. median p.hand_bwd, "ms");
    ("gen.dispatch_ms", 1000. *. (median p.auto_fwd -. median p.hand_fwd), "ms");
    ("tensor.vae_kernels_ms", kernels_ms, "ms");
    ("compile.stage_ms", stage_ms, "ms");
    ("parallel.jobs", jobs /. n_steps, "count");
    ( "parallel.parallel_share",
      (if jobs = 0. then 0. else sum (fun r -> r.r_parallel) /. jobs),
      "ratio" );
    ("gc.minor_kw", sumf (fun r -> r.r_minor_words) /. 1000. /. n_steps, "kwords");
    ("gc.major_kw", sumf (fun r -> r.r_major_words) /. 1000. /. n_steps, "kwords");
    ("ledger.step_ms", 1000. *. mean later_steps, "ms");
    ("ledger.unattributed_pct", 100. *. Spans.self_of self "step" /. total, "%");
    ("bench.trace_overhead_pct", 100. *. ((mean later_steps /. mean untraced) -. 1.), "%") ]

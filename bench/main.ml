(* Benchmark harness: one subcommand per table / figure of the paper,
   plus ablations and a Bechamel microbenchmark suite. `main.exe all`
   (the default) regenerates everything at a laptop-friendly scale;
   EXPERIMENTS.md records paper-vs-measured. *)

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let std xs =
  let m = mean xs in
  Float.sqrt (mean (List.map (fun x -> (x -. m) ** 2.) xs))

let median xs =
  let arr = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length arr in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then arr.(n / 2)
  else 0.5 *. (arr.((n / 2) - 1) +. arr.(n / 2))

(* ------------------------------------------------------------------ *)
(* T1 (Table 1 / Fig 10): VAE gradient-estimate wall time, automated
   vs hand-coded, across batch sizes. *)

let t1 ~quick () =
  hr "Table 1 / Fig 10: VAE gradient estimate timing (ms), ours vs hand-coded";
  let store = Store.create () in
  Vae.register store (Prng.key 1);
  let batches = if quick then [ 64; 128; 256 ] else [ 64; 128; 256; 512; 1024 ] in
  let repeats = if quick then 5 else 15 in
  Printf.printf "%-12s %-18s %-18s %s\n" "Batch size" "Ours" "Hand coded"
    "Overhead";
  List.iter
    (fun batch ->
      let images, _ = Data.digit_batch (Prng.key 2) batch in
      let ours =
        List.init repeats (fun i ->
            let frame = Store.Frame.make store in
            let t0 = Unix.gettimeofday () in
            let s =
              Adev.expectation
                (Vae.elbo_per_datum frame images)
                (Prng.fold_in (Prng.key 3) i)
            in
            Ad.backward s;
            ignore (Store.Frame.grads frame);
            (Unix.gettimeofday () -. t0) *. 1000.)
      in
      let hand =
        List.init repeats (fun i ->
            let frame = Store.Frame.make store in
            let t0 = Unix.gettimeofday () in
            let s =
              Vae_hand.elbo_surrogate frame images (Prng.fold_in (Prng.key 3) i)
            in
            Ad.backward s;
            ignore (Store.Frame.grads frame);
            (Unix.gettimeofday () -. t0) *. 1000.)
      in
      Printf.printf "%-12d %6.2f +- %-8.2f %6.2f +- %-8.2f %5.1f%%\n%!" batch
        (mean ours) (std ours) (mean hand) (std hand)
        (100. *. ((mean ours /. mean hand) -. 1.)))
    batches

(* ------------------------------------------------------------------ *)
(* T2 (Table 2): AIR seconds per epoch across estimators, our modular
   engine vs the monolithic baseline engine. *)

let baseline_air_epoch ~estimator ~images ~batch ~store ~optim key =
  let n = (Tensor.shape images).(0) in
  let nbatches = n / batch in
  let t0 = Unix.gettimeofday () in
  let (_ : Train.report list) =
    Train.fit_surrogate ~store ~optim ~steps:nbatches
      ~surrogate:(fun frame step key_step ->
        let surrogates =
          List.init batch (fun i ->
              let image = Tensor.slice0 images ((step * batch) + i) in
              let baselines = Air.make_baselines () in
              let model = Air.model frame image in
              let guide = Air.guide ~baselines frame image in
              Svi.elbo_surrogate ~model ~guide estimator
                (Prng.fold_in key_step i))
        in
        Ad.scale (1. /. float_of_int batch) (Ad.add_list surrogates))
      key
  in
  Unix.gettimeofday () -. t0

let baseline_air_iwelbo_epoch ~particles ~images ~batch ~store ~optim key =
  let n = (Tensor.shape images).(0) in
  let nbatches = n / batch in
  let t0 = Unix.gettimeofday () in
  let (_ : Train.report list) =
    Train.fit_surrogate ~store ~optim ~steps:nbatches
      ~surrogate:(fun frame step key_step ->
        let surrogates =
          List.init batch (fun i ->
              let image = Tensor.slice0 images ((step * batch) + i) in
              let baselines = Air.make_baselines () in
              let model = Air.model frame image in
              let guide = Air.guide ~baselines frame image in
              Svi.iwelbo_surrogate ~particles ~model ~guide Svi.Reinforce
                (Prng.fold_in key_step i))
        in
        Ad.scale (1. /. float_of_int batch) (Ad.add_list surrogates))
      key
  in
  Unix.gettimeofday () -. t0

let t2 ~quick () =
  hr "Table 2: AIR seconds/epoch per estimator (ours vs monolithic baseline)";
  let n_images = if quick then 64 else 256 in
  let batch = 16 in
  let images, _ = Data.air_batch (Prng.key 10) n_images in
  Printf.printf "(%d images, batch %d, IWELBO n=2)\n" n_images batch;
  let run_ours label strategy objective =
    let store = Store.create () in
    Air.register store (Prng.key 11);
    let optim = Optim.adam ~lr:1e-3 () in
    let baselines = Air.make_baselines () in
    let _, dt =
      Air.train_epoch ~pres:strategy ~pos:strategy ~store ~optim ~baselines
        ~objective ~images ~batch (Prng.key 12)
    in
    Printf.printf "%-22s ours: %7.3f s\n%!" label dt
  in
  let run_baseline label maker =
    let store = Store.create () in
    Air.register store (Prng.key 11);
    let optim = Optim.adam ~lr:1e-3 () in
    try
      let dt = maker ~images ~batch ~store ~optim (Prng.key 12) in
      Printf.printf "%-22s baseline: %7.3f s\n%!" label dt
    with Svi.Unsupported msg ->
      Printf.printf "%-22s baseline: X (%s)\n%!" label msg
  in
  run_ours "REINFORCE" Air.RE Air.Elbo;
  run_ours "REINFORCE+BL" Air.RE_BL Air.Elbo;
  run_ours "ENUM" Air.EN Air.Elbo;
  run_ours "MVD" Air.MV Air.Elbo;
  run_ours "IWELBO+REINFORCE" Air.RE (Air.Iwelbo 2);
  run_ours "IWELBO+MVD" Air.MV (Air.Iwelbo 2);
  run_baseline "REINFORCE" (baseline_air_epoch ~estimator:Svi.Reinforce);
  run_baseline "REINFORCE+BL"
    (baseline_air_epoch ~estimator:Svi.Reinforce_baselines);
  run_baseline "ENUM" (baseline_air_epoch ~estimator:Svi.Enum_discrete);
  Printf.printf "%-22s baseline: X (no measure-valued estimator in the menu)\n"
    "MVD";
  run_baseline "IWELBO+REINFORCE" (baseline_air_iwelbo_epoch ~particles:2);
  Printf.printf "%-22s baseline: X (no measure-valued estimator in the menu)\n"
    "IWELBO+MVD"

(* ------------------------------------------------------------------ *)
(* T3 (Table 3): the expressivity grid. *)

let baseline_probe ~model ~guide ~objective ~pres ~pos key =
  let estimator =
    match (pres, pos) with
    | Air.RE, Air.RE -> Svi.Reinforce
    | Air.RE_BL, Air.RE_BL -> Svi.Reinforce_baselines
    | Air.EN, Air.EN -> Svi.Enum_discrete
    | Air.MV, _ | _, Air.MV ->
      raise (Svi.Unsupported "no measure-valued estimator in the menu")
    | _ -> raise (Svi.Unsupported "per-site strategy mixing")
  in
  let s =
    match objective with
    | Grid.Elbo -> Svi.elbo_surrogate ~model ~guide estimator key
    | Grid.Iwae -> Svi.iwelbo_surrogate ~particles:2 ~model ~guide estimator key
    | Grid.Rws -> raise (Svi.Unsupported "reweighted wake-sleep")
  in
  Ad.backward s

let t3 ~quick () =
  hr "Table 3: estimator-combination x objective expressivity grid";
  Printf.printf "%-28s %-8s %-10s %s\n" "Strategies (pres+pos)" "Obj."
    "Baseline" "Ours";
  let key = Prng.key 20 in
  List.iter
    (fun (combo, obj) ->
      let heavy =
        obj = Grid.Iwae
        && (combo.Grid.pres = Air.EN || combo.Grid.pos = Air.EN)
      in
      let ours =
        if quick && heavy then "OK*"
        else
          match Grid.try_ours combo obj key with
          | Grid.Supported -> "OK"
          | Grid.Failed msg -> "X (" ^ msg ^ ")"
      in
      let baseline =
        match Grid.try_probe ~probe:baseline_probe combo obj key with
        | Grid.Supported -> "OK"
        | Grid.Failed _ -> "X"
      in
      Printf.printf "%-28s %-8s %-10s %s\n%!" (Grid.combo_name combo)
        (Grid.objective_name obj) baseline ours)
    Grid.rows;
  if quick then
    Printf.printf
      "(* = IWAE with full enumeration verified in the non-quick run)\n"

(* ------------------------------------------------------------------ *)
(* T4 (Table 4): final mean objective values on the cone problem. *)

let t4 ~quick () =
  hr "Table 4: final mean objective value (nats) on the cone problem";
  let steps = if quick then 800 else 2000 in
  let kinds =
    [ Cone.Elbo; Cone.Iwelbo 5; Cone.Hvi; Cone.Iwhvi 5;
      Cone.Iwhvi_learned 5; Cone.Diwhvi (5, 5) ]
  in
  Printf.printf "%-18s %-10s %s\n" "Objective" "Value" "(higher = tighter)";
  List.iter
    (fun kind ->
      let store, _ = Cone.train ~steps kind (Prng.key 30) in
      let v = Cone.final_value ~samples:3000 store kind (Prng.key 31) in
      Printf.printf "%-18s %8.2f\n%!" (Cone.objective_name kind) v)
    kinds

(* ------------------------------------------------------------------ *)
(* F2 (Fig 2): ELBO training of the mean-field guide. *)

let scatter_stats pts =
  let r2s = List.map (fun (x, y) -> (x *. x) +. (y *. y)) pts in
  (mean r2s, std r2s)

let f2 ~quick () =
  hr "Fig 2: mean-field guide trained with the ELBO on the cone posterior";
  let steps = if quick then 800 else 2000 in
  let store, reports = Cone.train ~steps Cone.Elbo (Prng.key 40) in
  List.iter
    (fun s ->
      if s < steps then
        Printf.printf "step %5d  elbo %8.3f\n" s
          (List.nth reports s).Train.objective)
    [ 0; 10; 50; 100; 200; 400; steps - 1 ];
  let pts = Cone.guide_samples store Cone.Elbo 400 (Prng.key 41) in
  let m, s = scatter_stats pts in
  Printf.printf
    "guide samples: mean(x^2+y^2) = %.2f +- %.2f (posterior circle: 5.0)\n" m s;
  Printf.printf
    "mode-seeking: the mean-field guide hugs one arc of the circle\n"

(* F3 (Fig 3): programmable improvements — IWELBO + SIR, marginal. *)

let f3 ~quick () =
  hr "Fig 3: importance-weighted VI and hierarchical guides on the cone";
  let steps = if quick then 800 else 2000 in
  (* Left panel: train with IWELBO, then sample the SIR guide. *)
  let store, _ = Cone.train ~steps (Cone.Iwelbo 5) (Prng.key 50) in
  let frame = Store.Frame.make store in
  let sir = Cone.guide_sir ~particles:30 frame in
  let pts =
    List.init 400 (fun i ->
        let _, trace, _ = Gen.sample_prior sir (Prng.fold_in (Prng.key 51) i) in
        (Trace.get_float "x" trace, Trace.get_float "y" trace))
  in
  let m, s = scatter_stats pts in
  Printf.printf "q_SIR (N=30) samples: mean r^2 = %.2f +- %.2f (target 5.0)\n" m s;
  (* Right panel: hierarchical guide via marginal. *)
  let store_h, _ = Cone.train ~steps (Cone.Iwhvi 5) (Prng.key 52) in
  let pts_h = Cone.guide_samples store_h (Cone.Iwhvi 5) 400 (Prng.key 53) in
  let mh, sh = scatter_stats pts_h in
  Printf.printf "q_MARG samples:       mean r^2 = %.2f +- %.2f (target 5.0)\n" mh
    sh;
  (* Angular coverage: the hierarchical guide should cover more of the
     circle than the mode-seeking mean-field guide. *)
  let store_e, _ = Cone.train ~steps Cone.Elbo (Prng.key 54) in
  let pts_e = Cone.guide_samples store_e Cone.Elbo 400 (Prng.key 55) in
  let angular_spread pts =
    let angles = List.map (fun (x, y) -> Float.atan2 y x) pts in
    std angles
  in
  Printf.printf "angular spread: mean-field %.2f, hierarchical %.2f rad\n"
    (angular_spread pts_e) (angular_spread pts_h)

(* ------------------------------------------------------------------ *)
(* F8 (Fig 8): AIR training curves (objective + count accuracy). *)

let f8 ~quick () =
  hr "Fig 8: AIR objective and count accuracy per epoch, per estimator";
  let n_images = if quick then 96 else 256 in
  let epochs = if quick then 4 else 10 in
  let batch = 16 in
  let images, _ = Data.air_batch (Prng.key 60) n_images in
  let eval_images, eval_counts = Data.air_batch (Prng.key 61) 64 in
  let configs =
    [ ("ELBO+REINFORCE", Air.RE, Air.Elbo);
      ("ELBO+REINFORCE+BL", Air.RE_BL, Air.Elbo);
      ("ELBO+ENUM", Air.EN, Air.Elbo);
      ("ELBO+MVD", Air.MV, Air.Elbo);
      ("IWAE(2)+REINFORCE", Air.RE, Air.Iwelbo 2);
      ("IWAE(2)+MVD", Air.MV, Air.Iwelbo 2);
      ("RWS(2)", Air.RE, Air.Rws 2) ]
  in
  Printf.printf "series: config, epoch, mean objective, count accuracy\n";
  List.iter
    (fun (label, strategy, objective) ->
      let store = Store.create () in
      Air.register store (Prng.key 62);
      let optim = Optim.adam ~lr:1e-3 () in
      let baselines = Air.make_baselines () in
      for epoch = 1 to epochs do
        let obj, _ =
          Air.train_epoch ~pres:strategy ~pos:strategy ~store ~optim
            ~baselines ~objective ~images ~batch
            (Prng.fold_in (Prng.key 63) epoch)
        in
        let acc =
          Air.count_accuracy store eval_images eval_counts
            (Prng.fold_in (Prng.key 64) epoch)
        in
        Printf.printf "%s, %d, %.3f, %.3f\n%!" label epoch obj acc
      done)
    configs

(* ------------------------------------------------------------------ *)
(* D1: coin fairness. *)

let d1 ~quick () =
  hr "Appendix D.1: coin fairness (Beta-Bernoulli)";
  let steps = if quick then 600 else 1500 in
  let store, reports, dt = Coin.train ~steps (Prng.key 70) in
  let last100 =
    List.filteri (fun i _ -> i >= steps - 100) reports
    |> List.map (fun r -> r.Train.objective)
  in
  Printf.printf "wall time / step: %.3f ms\n" (1000. *. dt /. float_of_int steps);
  Printf.printf "avg ELBO (last 100 steps): %.2f\n" (mean last100);
  Printf.printf "inferred posterior mean: %.3f (exact conjugate: %.3f)\n"
    (Coin.posterior_mean store) Coin.exact_posterior_mean

(* D2: Bayesian linear regression. *)

let d2 ~quick () =
  hr "Appendix D.2: Bayesian linear regression (terrain ruggedness)";
  let steps = if quick then 600 else 1500 in
  let store, reports, dt = Regression.train ~steps (Prng.key 71) in
  let n_data = float_of_int (Array.length Regression.data) in
  let last100 =
    List.filteri (fun i _ -> i >= steps - 100) reports
    |> List.map (fun r -> r.Train.objective /. n_data)
  in
  Printf.printf "wall time / step: %.3f ms\n" (1000. *. dt /. float_of_int steps);
  Printf.printf "avg ELBO per datum (last 100 steps): %.3f\n" (mean last100);
  let a, ba, br, bar = Regression.coefficient_means store in
  let ta, tba, tbr, tbar = Data.regression_truth in
  Printf.printf "coefficients (learned vs true):\n";
  Printf.printf "  a   = %6.2f vs %6.2f\n  bA  = %6.2f vs %6.2f\n" a ta ba tba;
  Printf.printf "  bR  = %6.2f vs %6.2f\n  bAR = %6.2f vs %6.2f\n" br tbr bar
    tbar;
  Printf.printf "posterior predictive (mean [90%% CI]):\n";
  List.iter
    (fun r ->
      let m1, lo1, hi1 =
        Regression.predict store ~ruggedness:r ~in_africa:true (Prng.key 72)
      in
      let m0, lo0, hi0 =
        Regression.predict store ~ruggedness:r ~in_africa:false (Prng.key 73)
      in
      Printf.printf
        "  ruggedness %4.1f: africa %5.2f [%5.2f, %5.2f]   other %5.2f [%5.2f, \
         %5.2f]\n"
        r m1 lo1 hi1 m0 lo0 hi0)
    [ 0.; 2.; 4.; 6. ]

(* D3: semi-supervised VAE. *)

let d3 ~quick () =
  hr "Appendix D.3: semi-supervised VAE";
  let n = if quick then 64 else 256 in
  let epochs = if quick then 3 else 8 in
  let images, labels = Data.digit_batch (Prng.key 80) n in
  let store = Store.create () in
  Ssvae.register store (Prng.key 81);
  let optim = Optim.adam ~lr:2e-3 () in
  Printf.printf "epoch, unsup ELBO/datum, seconds, classifier accuracy\n";
  for epoch = 1 to epochs do
    let elbo, dt =
      Ssvae.train_epoch ~store ~optim ~images ~labels ~batch:8
        ~supervised_every:4
        (Prng.fold_in (Prng.key 82) epoch)
    in
    let acc = Ssvae.classifier_accuracy store images labels in
    Printf.printf "%d, %.2f, %.3f, %.3f\n%!" epoch elbo dt acc
  done;
  Printf.printf "conditional generation (label 3):\n%s"
    (Data.ascii (Ssvae.generate store ~label:3 (Prng.key 83)))

(* D4: conditional VAE. *)

let d4 ~quick () =
  hr "Appendix D.4: conditional VAE (quadrant completion)";
  let n = if quick then 64 else 256 in
  let epochs = if quick then 3 else 8 in
  let images, _ = Data.digit_batch (Prng.key 90) n in
  let store = Store.create () in
  Cvae.register store (Prng.key 91);
  let optim = Optim.adam ~lr:2e-3 () in
  Printf.printf "epoch, ELBO/datum, seconds\n";
  for epoch = 1 to epochs do
    let elbo, dt =
      Cvae.train_epoch ~store ~optim ~images ~batch:8
        (Prng.fold_in (Prng.key 92) epoch)
    in
    Printf.printf "%d, %.2f, %.3f\n%!" epoch elbo dt
  done;
  let img = Tensor.slice0 images 0 in
  Printf.printf "input digit:\n%s" (Data.ascii img);
  Printf.printf "fill-in from bottom-left quadrant:\n%s"
    (Data.ascii (Cvae.fill_in store img (Prng.key 93)))

(* ------------------------------------------------------------------ *)
(* Ablations. *)

let grad_variance ~n build =
  let samples =
    List.init n (fun i ->
        let theta, obj = build () in
        let _, grads =
          Adev.grad
            ~params:[ ("theta", theta) ]
            obj
            (Prng.fold_in (Prng.key 99) i)
        in
        Tensor.to_scalar (List.assoc "theta" grads))
  in
  (mean samples, std samples ** 2.)

let ablations ~quick () =
  hr "Ablation: gradient variance of REINFORCE vs MVD vs REPARAM (normal scale)";
  let n = if quick then 2000 else 10000 in
  Printf.printf
    "objective: d/dsigma E_{x~N(0,sigma)}[x^2] at sigma = 0.9 (true 1.8)\n";
  let make dist =
    let open Adev.Syntax in
    let theta = Ad.scalar 0.9 in
    ( theta,
      let* x = Adev.sample (dist (Ad.scalar 0.) theta) in
      Adev.return (Ad.mul x x) )
  in
  List.iter
    (fun (label, dist) ->
      let m, v = grad_variance ~n (fun () -> make dist) in
      Printf.printf "%-10s mean %6.3f  variance %8.3f\n%!" label m v)
    [ ("REINFORCE", Dist.normal_reinforce); ("MVD", Dist.normal_mvd);
      ("REPARAM", Dist.normal_reparam) ];
  hr "Ablation: per-site DiCE (ours) vs single-coefficient monolithic surrogate";
  let toy_model =
    let open Gen.Syntax in
    let* b = Gen.sample (Dist.flip_reinforce (Ad.scalar 0.5)) "b" in
    Gen.observe (Dist.flip_reinforce (Ad.scalar (if b then 0.9 else 0.2))) true
  in
  let modular =
    List.init n (fun i ->
        let theta = Ad.scalar 0.4 in
        let guide = Gen.sample (Dist.flip_reinforce theta) "b" in
        let _, grads =
          Adev.grad
            ~params:[ ("theta", theta) ]
            (Objectives.elbo ~model:toy_model ~guide)
            (Prng.fold_in (Prng.key 98) i)
        in
        Tensor.to_scalar (List.assoc "theta" grads))
  in
  let monolithic =
    List.init n (fun i ->
        let theta = Ad.scalar 0.4 in
        let guide = Gen.sample (Dist.flip_reinforce theta) "b" in
        let s =
          Svi.elbo_surrogate ~model:toy_model ~guide Svi.Reinforce
            (Prng.fold_in (Prng.key 98) i)
        in
        Ad.backward s;
        Tensor.to_scalar (Ad.grad theta))
  in
  Printf.printf "modular DiCE:        mean %.3f variance %.3f\n" (mean modular)
    (std modular ** 2.);
  Printf.printf "monolithic:          mean %.3f variance %.3f\n"
    (mean monolithic)
    (std monolithic ** 2.);
  Printf.printf "(same estimator, two constructions: means agree)\n";
  hr "Ablation: estimator cost and variance vs categorical support size";
  Printf.printf
    "objective: E_{i ~ softmax(logits)}[f i], one gradient sample per run\n";
  let scaling_n = if quick then 500 else 2000 in
  List.iter
    (fun support ->
      let table = Array.init support (fun i -> Float.sin (float_of_int i)) in
      let make dist_of =
        let logits =
          Ad.const
            (Tensor.init [| support |] (fun ix -> 0.01 *. float_of_int ix.(0)))
        in
        let open Adev.Syntax in
        ( logits,
          let* i = Adev.sample (dist_of logits) in
          Adev.return (Ad.scalar table.(i)) )
      in
      List.iter
        (fun (label, dist_of) ->
          let t0 = Unix.gettimeofday () in
          let grads =
            List.init scaling_n (fun i ->
                let logits, obj = make dist_of in
                let _, gs =
                  Adev.grad
                    ~params:[ ("l", logits) ]
                    obj
                    (Prng.fold_in (Prng.key 93) i)
                in
                Tensor.get_flat (List.assoc "l" gs) 0)
          in
          let dt = (Unix.gettimeofday () -. t0) /. float_of_int scaling_n in
          Printf.printf
            "support %4d  %-10s %8.1f us/grad   grad[0] var %10.6f\n%!"
            support label (dt *. 1e6) (std grads ** 2.))
        [ ("REINFORCE", Dist.categorical_logits_reinforce);
          ("ENUM", Dist.categorical_logits_enum);
          ("MVD", Dist.categorical_logits_mvd) ])
    [ 2; 8; 32; 128 ];
  hr "Extension: Markov chain VI (MH chain marginalized with `marginal`)";
  let mcvi_steps = if quick then 400 else 1000 in
  let store_mcvi, _ = Mcvi.train ~train_steps:mcvi_steps ~aux_particles:3 (Prng.key 95) in
  let pts = Mcvi.guide_samples store_mcvi 300 (Prng.key 94) in
  let r2 = mean (List.map (fun (x, y) -> (x *. x) +. (y *. y)) pts) in
  let angles = List.map (fun (x, y) -> Float.atan2 y x) pts in
  Printf.printf
    "MCVI (3-step MH chain, m=3): mean r^2 = %.2f (target 5), angular spread %.2f rad\n"
    r2 (std angles);
  hr "Ablation: marginal particle count vs bound tightness (IWHVI on the cone)";
  let steps = if quick then 600 else 1500 in
  List.iter
    (fun m ->
      let store, _ = Cone.train ~steps (Cone.Iwhvi m) (Prng.key 97) in
      let v =
        Cone.final_value ~samples:2000 store (Cone.Iwhvi m) (Prng.key 96)
      in
      Printf.printf "IWHVI m=%-3d final objective %8.3f\n%!" m v)
    [ 1; 5; 25 ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per table. *)

let bechamel () =
  hr "Bechamel microbenchmarks (monotonic clock, one test per table)";
  let open Bechamel in
  let vae_store = Store.create () in
  Vae.register vae_store (Prng.key 1);
  let vae_images, _ = Data.digit_batch (Prng.key 2) 64 in
  let t1_ours =
    Test.make ~name:"t1: VAE grad (ours, batch 64)"
      (Staged.stage (fun () ->
           let frame = Store.Frame.make vae_store in
           let s =
             Adev.expectation (Vae.elbo_per_datum frame vae_images) (Prng.key 3)
           in
           Ad.backward s))
  in
  let t1_hand =
    Test.make ~name:"t1: VAE grad (hand-coded, batch 64)"
      (Staged.stage (fun () ->
           let frame = Store.Frame.make vae_store in
           let s = Vae_hand.elbo_surrogate frame vae_images (Prng.key 3) in
           Ad.backward s))
  in
  let air_store = Store.create () in
  Air.register air_store (Prng.key 4);
  let air_images, _ = Data.air_batch (Prng.key 5) 4 in
  let air_test name strategy =
    Test.make ~name
      (Staged.stage (fun () ->
           let frame = Store.Frame.make air_store in
           let baselines = Air.make_baselines () in
           let objs =
             Air.batch_objectives ~pres:strategy ~pos:strategy ~baselines
               Air.Elbo frame air_images
           in
           let s =
             Ad.add_list
               (List.mapi
                  (fun i o -> Adev.expectation o (Prng.fold_in (Prng.key 6) i))
                  objs)
           in
           Ad.backward s))
  in
  let t3_grid =
    Test.make ~name:"t3: one mixed-strategy grid cell (MVD+ENUM)"
      (Staged.stage (fun () ->
           ignore
             (Grid.try_ours
                { Grid.pres = Air.MV; pos = Air.EN }
                Grid.Elbo (Prng.key 9))))
  in
  let t4_cone =
    Test.make ~name:"t4: cone DIWHVI(5,5) objective estimate"
      (Staged.stage (fun () ->
           let store = Store.create () in
           Cone.register store (Prng.key 7);
           let frame = Store.Frame.make store in
           let s =
             Adev.expectation
               (Cone.objective (Cone.Diwhvi (5, 5)) frame)
               (Prng.key 8)
           in
           Ad.backward s))
  in
  let tests =
    [ t1_ours; t1_hand;
      air_test "t2: AIR ELBO step (REINFORCE, 4 imgs)" Air.RE;
      air_test "t2: AIR ELBO step (ENUM, 4 imgs)" Air.EN;
      air_test "t2: AIR ELBO step (MVD, 4 imgs)" Air.MV; t3_grid; t4_cone ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"ppvi" [ test ]) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-50s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-50s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark pipeline: `json` times the tensor kernels
   and the full VAE gradient step with bechamel's monotonic clock and
   writes BENCH_tensor.json / BENCH_vae.json (schema documented in
   EXPERIMENTS.md). *)

let bech_samples ~quota ~limit f =
  let open Bechamel in
  let test = Test.make ~name:"sample" (Staged.stage f) in
  let elt = List.hd (Test.elements test) in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) () in
  let { Benchmark.lr; _ } =
    Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt
  in
  let label = Measure.label Toolkit.Instance.monotonic_clock in
  (* Per-sample wall time in milliseconds: total ns over the sample's
     runs, divided by the run count. *)
  Array.to_list lr
  |> List.map (fun r ->
         Measurement_raw.get ~label r /. Measurement_raw.run r /. 1e6)

type json_entry = {
  e_name : string;
  e_pkey : string;  (* "size" for tensor entries, "batch" for VAE *)
  e_pval : int;
  e_samples : float list;
}

let write_json path ~domains entries =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"schema_version\": 1,\n  \"domains\": %d,\n  \"kernels\": %S,\n  \
     \"entries\": [\n"
    domains (Kernel.isa ());
  let n = List.length entries in
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "    { \"name\": %S, \"%s\": %d, \"mean_ms\": %.6f, \"stddev_ms\": \
         %.6f, \"median_ms\": %.6f, \"domains\": %d }%s\n"
        e.e_name e.e_pkey e.e_pval (mean e.e_samples) (std e.e_samples)
        (median e.e_samples) domains
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" path n

let json ~quick () =
  hr
    "Machine-readable benchmarks -> BENCH_tensor.json, BENCH_vae.json, \
     BENCH_batched.json, BENCH_compiled.json";
  let domains = Parallel.domains () in
  let quota = if quick then 0.25 else 1.0 in
  let limit = if quick then 1 else 300 in
  let run f = bech_samples ~quota ~limit f in
  let mat n key = Tensor.map (fun u -> u -. 0.5) (Prng.uniform_tensor (Prng.key key) [| n; n |]) in
  let tensor_entries =
    let sizes = if quick then [ 64; 128; 256 ] else [ 64; 128; 256; 512 ] in
    let matmuls =
      List.map
        (fun n ->
          let a = mat n 100 and b = mat n 101 in
          { e_name = "matmul"; e_pkey = "size"; e_pval = n;
            e_samples = run (fun () -> ignore (Sys.opaque_identity (Tensor.matmul a b))) })
        sizes
    in
    let a256 = mat 256 102 and b256 = mat 256 103 in
    let transposed =
      [ { e_name = "matmul_t"; e_pkey = "size"; e_pval = 256;
          e_samples = run (fun () -> ignore (Sys.opaque_identity (Tensor.matmul_t a256 b256))) };
        { e_name = "t_matmul"; e_pkey = "size"; e_pval = 256;
          e_samples = run (fun () -> ignore (Sys.opaque_identity (Tensor.t_matmul a256 b256))) } ]
    in
    let rows =
      Tensor.map (fun u -> u -. 0.5) (Prng.uniform_tensor (Prng.key 104) [| 256; 144 |])
    and bias =
      Tensor.map (fun u -> u -. 0.5) (Prng.uniform_tensor (Prng.key 105) [| 144 |])
    in
    let big = Tensor.map (fun u -> u -. 0.5) (Prng.uniform_tensor (Prng.key 106) [| 512; 512 |]) in
    let elementwise =
      [ { e_name = "map2_row_broadcast"; e_pkey = "size"; e_pval = 256 * 144;
          e_samples = run (fun () -> ignore (Sys.opaque_identity (Tensor.add rows bias))) };
        { e_name = "map_softplus"; e_pkey = "size"; e_pval = 512 * 512;
          e_samples = run (fun () -> ignore (Sys.opaque_identity (Tensor.softplus big))) } ]
    in
    matmuls @ transposed @ elementwise
  in
  write_json "BENCH_tensor.json" ~domains tensor_entries;
  let store = Store.create () in
  Vae.register store (Prng.key 1);
  let batches = [ 64; 128; 256 ] in
  let vae_entries =
    List.concat_map
      (fun batch ->
        let images, _ = Data.digit_batch (Prng.key 2) batch in
        let ours =
          run (fun () ->
              let frame = Store.Frame.make store in
              let s =
                Adev.expectation (Vae.elbo_per_datum frame images) (Prng.key 3)
              in
              Ad.backward s;
              ignore (Sys.opaque_identity (Store.Frame.grads frame)))
        in
        let hand =
          run (fun () ->
              let frame = Store.Frame.make store in
              let s = Vae_hand.elbo_surrogate frame images (Prng.key 3) in
              Ad.backward s;
              ignore (Sys.opaque_identity (Store.Frame.grads frame)))
        in
        [ { e_name = "vae_grad_step"; e_pkey = "batch"; e_pval = batch;
            e_samples = ours };
          { e_name = "vae_grad_step_hand"; e_pkey = "batch"; e_pval = batch;
            e_samples = hand } ])
      batches
  in
  (* Observability overhead: the batch-256 "ours" grad step re-run with
     recording enabled (null sink). compare.exe --overhead gates the
     median of this entry against vae_grad_step from the same run. *)
  let obs_entry =
    let batch = 256 in
    let images, _ = Data.digit_batch (Prng.key 2) batch in
    Obs.configure ~enabled:true ~sink:`Null ();
    let samples =
      run (fun () ->
          let frame = Store.Frame.make store in
          let s =
            Adev.expectation (Vae.elbo_per_datum frame images) (Prng.key 3)
          in
          Ad.backward s;
          ignore (Sys.opaque_identity (Store.Frame.grads frame)))
    in
    Obs.configure ~enabled:false ~sink:`Console ();
    Obs.reset ();
    { e_name = "vae_grad_step_obs"; e_pkey = "batch"; e_pval = batch;
      e_samples = samples }
  in
  write_json "BENCH_vae.json" ~domains (vae_entries @ [ obs_entry ]);
  (* Batched-engine speedups: the plated VAE gradient step against the
     per-datum interpreter loop, and the 64-particle IWELBO drawn as one
     vectorized pass against the sequential particle loop. *)
  let batched_entries =
    let batch = 256 in
    let images, _ = Data.digit_batch (Prng.key 2) batch in
    let grad_step elbo =
      run (fun () ->
          let frame = Store.Frame.make store in
          let s = Adev.expectation (elbo frame images) (Prng.key 3) in
          Ad.backward s;
          ignore (Sys.opaque_identity (Store.Frame.grads frame)))
    in
    let one, _ = Data.digit_batch (Prng.key 4) 1 in
    let image = Tensor.slice0 one 0 in
    let particles = 64 in
    let iwelbo_step batched =
      run (fun () ->
          let frame = Store.Frame.make store in
          let s =
            Adev.expectation
              (Objectives.iwelbo ~batched ~particles
                 ~model:(Vae.model1 frame image)
                 ~guide:(Vae.guide1 frame image) ())
              (Prng.key 5)
          in
          Ad.backward s;
          ignore (Sys.opaque_identity (Store.Frame.grads frame)))
    in
    [ { e_name = "vae_grad_step_batched"; e_pkey = "batch"; e_pval = batch;
        e_samples = grad_step Vae.elbo_per_datum };
      { e_name = "vae_grad_step_looped"; e_pkey = "batch"; e_pval = batch;
        e_samples = grad_step Vae.elbo_per_datum_looped };
      { e_name = "iwelbo_batched"; e_pkey = "particles"; e_pval = particles;
        e_samples = iwelbo_step true };
      { e_name = "iwelbo_sequential"; e_pkey = "particles"; e_pval = particles;
        e_samples = iwelbo_step false } ]
  in
  write_json "BENCH_batched.json" ~domains batched_entries;
  (* The one-time staging cost of the VAE model/guide pair (the
     analysis behind PV501 and [ppvi compile]). *)
  let compiled_entries =
    let images, _ = Data.digit_batch (Prng.key 2) 256 in
    let staging =
      run (fun () ->
          let frame = Store.Frame.make store in
          ignore
            (Sys.opaque_identity
               ( Compile.compile ~id:"bench/vae/model"
                   (Gen.Packed (Vae.model frame images)),
                 Compile.compile ~id:"bench/vae/guide"
                   (Gen.Packed (Vae.guide frame images)) )))
    in
    [ { e_name = "compile_once"; e_pkey = "programs"; e_pval = 2;
        e_samples = staging } ]
  in
  write_json "BENCH_compiled.json" ~domains compiled_entries

(* Memory-scaled training suite -> BENCH_memory.json: rematerialization
   (latency, GC pressure, peak live tape) and sharded-step determinism.
   The _kw, peak-live, and mismatch pseudo-entries are deterministic
   for a fixed batch, so the CI gates on them are machine-independent;
   only the vae_grad_step_remat latency entry is wall-clock. *)
let memory ~quick () =
  hr "Memory-scaled training -> BENCH_memory.json";
  let domains = Parallel.domains () in
  let quota = if quick then 0.25 else 1.0 in
  let limit = if quick then 1 else 300 in
  let run f = bech_samples ~quota ~limit f in
  let batch = 256 in
  let segments = 4 in
  let store = Store.create () in
  Vae.register store (Prng.key 1);
  let key = Prng.key 2 in
  (* The batch is drawn once: data synthesis is identical on both
     sides, so excluding it keeps the remat-vs-plain comparison about
     the tape. *)
  let images, _ = Data.digit_batch key batch in
  let step remat () = Vae.grad_step_on store ~images ~segments ~remat key in
  let plain = run (step false) in
  let remat = run (step true) in
  (* GC pressure per gradient step, in kwords: one warm-up step (the
     segment pool populates its size classes on the first checkpointed
     run), then the averaged Gc delta over a fixed rep count. *)
  let alloc_kwords remat =
    step remat ();
    let reps = 5 in
    let s0 = Gc.quick_stat () in
    for _ = 1 to reps do
      step remat ()
    done;
    let s1 = Gc.quick_stat () in
    let per f = (f s1 -. f s0) /. float_of_int reps /. 1e3 in
    ( per (fun (s : Gc.stat) -> s.Gc.minor_words),
      per (fun (s : Gc.stat) -> s.Gc.major_words -. s.Gc.promoted_words) )
  in
  let plain_minor_kw, plain_major_kw = alloc_kwords false in
  let remat_minor_kw, remat_major_kw = alloc_kwords true in
  (* Peak live tape nodes, A/B on the SAME sliced step with checkpoint
     barriers off/on (counts, not times): the vectorized tape's node
     count is batch-independent, so the honest measure of what
     checkpointing buys is barrier-vs-no-barrier on one graph. *)
  let peak_full =
    Vae.grad_step_peak_live store ~batch ~segments ~remat:false key
  in
  let peak_remat =
    Vae.grad_step_peak_live store ~batch ~segments ~remat:true key
  in
  (* Determinism drill: the same 4-shard gradient step on 1, 2, and 4
     domains, and the remat A/B under fixed keys, must agree
     bit-for-bit. Mismatch counts become pseudo-entries gated against
     the constant reference entry (medians can't express "must be
     zero" directly, so both sides are offset by 1). *)
  let grads_bits ndomains remat =
    Parallel.set_domains ndomains;
    let spec = Vae.step_spec ~shards:4 ~remat ~batch:64 (Prng.key 5) in
    let _, gs = Train.shard_step ~store ~spec ~step:0 (Prng.key 5) in
    List.map
      (fun (n, t) -> (n, Array.map Int64.bits_of_float (Tensor.to_array t)))
      gs
  in
  let reference = grads_bits 1 false in
  let count_mismatch other =
    try
      List.fold_left2
        (fun acc (n1, b1) (n2, b2) ->
          if n1 = n2 && b1 = b2 then acc else acc + 1)
        0 reference other
    with Invalid_argument _ -> List.length reference
  in
  let shard_mismatches =
    count_mismatch (grads_bits 2 false) + count_mismatch (grads_bits 4 false)
  in
  let remat_mismatches =
    count_mismatch (grads_bits 1 true) + count_mismatch (grads_bits 4 true)
  in
  Parallel.set_domains domains;
  write_json "BENCH_memory.json" ~domains
    [ { e_name = "vae_grad_step_plain"; e_pkey = "batch"; e_pval = batch;
        e_samples = plain };
      { e_name = "vae_grad_step_remat"; e_pkey = "batch"; e_pval = batch;
        e_samples = remat };
      { e_name = "vae_grad_step_plain_minor_kw"; e_pkey = "batch";
        e_pval = batch; e_samples = [ plain_minor_kw ] };
      { e_name = "vae_grad_step_remat_minor_kw"; e_pkey = "batch";
        e_pval = batch; e_samples = [ remat_minor_kw ] };
      { e_name = "vae_grad_step_plain_major_kw"; e_pkey = "batch";
        e_pval = batch; e_samples = [ plain_major_kw ] };
      { e_name = "vae_grad_step_remat_major_kw"; e_pkey = "batch";
        e_pval = batch; e_samples = [ remat_major_kw ] };
      { e_name = "vae_peak_live_full"; e_pkey = "batch"; e_pval = batch;
        e_samples = [ float_of_int peak_full ] };
      { e_name = "vae_peak_live_remat"; e_pkey = "batch"; e_pval = batch;
        e_samples = [ float_of_int peak_remat ] };
      { e_name = "vae_shard_mismatches"; e_pkey = "batch"; e_pval = 64;
        e_samples = [ float_of_int (1 + shard_mismatches) ] };
      { e_name = "vae_remat_mismatches"; e_pkey = "batch"; e_pval = 64;
        e_samples = [ float_of_int (1 + remat_mismatches) ] };
      { e_name = "vae_shard_reference"; e_pkey = "batch"; e_pval = 64;
        e_samples = [ 1.0 ] } ]

(* ------------------------------------------------------------------ *)
(* Inference-as-a-service suite -> BENCH_serve.json: 64 concurrent
   clients against the coalescing daemon vs the same 64-request index
   range pushed by one sequential client, plus the observed coalesce
   ratio, per-request bit-identity across the two passes, and a
   mid-load drain drill. Mismatch/lost counts become pseudo-entries
   offset by 1 and gated against the constant serve_reference entry,
   like the memory suite's determinism gates; the coalesce floor is a
   constant 2.0 entry gated to stay at or below the observed ratio. *)
let serve_bench ~quick () =
  hr "Inference-as-a-service -> BENCH_serve.json";
  let domains = Parallel.domains () in
  let reps = if quick then 1 else 3 in
  let clients = 64 in
  let per = if quick then 2 else 8 in
  let total = clients * per in
  let model = "chain" in
  let seed = 42 in
  let sock_counter = ref 0 in
  let with_server ~max_wait_us f =
    incr sock_counter;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ppvi-bench-%d-%d.sock" (Unix.getpid ()) !sock_counter)
    in
    let cfg =
      { (Serve.default_cfg (`Unix path)) with
        Serve.max_wait_us;
        queue_bound = 4096
      }
    in
    let s = Serve.start cfg in
    Fun.protect
      ~finally:(fun () ->
        Serve.request_drain s;
        Serve.wait s)
      (fun () -> f path s)
  in
  (* The sequential reference drives the SAME global request indices
     (round-robin over one client = identity), one at a time, through a
     fresh daemon with no batching window: every request is its own
     batch, which is exactly the no-coalescing cost. *)
  let sequential_pass () =
    with_server ~max_wait_us:0. (fun path _ ->
        Serve.run_load (`Unix path) ~clients:1 ~requests:total ~model ~seed ())
  in
  let concurrent_pass () =
    with_server ~max_wait_us:200. (fun path s ->
        let r =
          Serve.run_load (`Unix path) ~clients ~requests:per ~model ~seed ()
        in
        (r, Batcher.stats (Serve.batcher s)))
  in
  (* One warm pass on each side (plan staging, allocator warm-up). *)
  ignore (sequential_pass ());
  ignore (concurrent_pass ());
  let seq_reports = List.init reps (fun _ -> sequential_pass ()) in
  let conc_runs = List.init reps (fun _ -> concurrent_pass ()) in
  List.iter
    (fun r ->
      if r.Serve.lr_ok <> total then
        failwith
          (Printf.sprintf "serve bench: sequential pass answered %d/%d"
             r.Serve.lr_ok total))
    seq_reports;
  List.iter
    (fun (r, _) ->
      if r.Serve.lr_ok <> total then
        failwith
          (Printf.sprintf "serve bench: concurrent pass answered %d/%d"
             r.Serve.lr_ok total))
    conc_runs;
  let seq_samples =
    List.map (fun r -> r.Serve.lr_wall_s *. 1000.) seq_reports
  in
  let conc_samples =
    List.map (fun (r, _) -> r.Serve.lr_wall_s *. 1000.) conc_runs
  in
  let ratios =
    List.map (fun (_, st) -> Batcher.coalesce_ratio st) conc_runs
  in
  (* Bit-identity: every concurrent report must match the sequential
     reference index-for-index at the Int64 level. *)
  let reference = List.hd seq_reports in
  let mismatches =
    List.fold_left
      (fun acc (r, _) -> acc + Serve.mismatches reference r)
      0 conc_runs
  in
  (* Drain drill: request a drain mid-load; every request a client
     managed to send must still get a reply (value or an explicit
     draining error) — lost must be 0. *)
  let drain_lost =
    with_server ~max_wait_us:200. (fun path s ->
        let drainer =
          Thread.create
            (fun () ->
              Thread.delay 0.01;
              Serve.request_drain s)
            ()
        in
        let r =
          Serve.run_load (`Unix path) ~clients:8 ~requests:50 ~model ~seed:7 ()
        in
        Thread.join drainer;
        r.Serve.lr_lost)
  in
  Printf.printf
    "serve: %d requests  sequential %.1f ms  concurrent(%d clients) %.1f ms  \
     coalesce ratio %.2f  mismatches %d  drain lost %d\n%!"
    total (mean seq_samples) clients (mean conc_samples) (mean ratios)
    mismatches drain_lost;
  write_json "BENCH_serve.json" ~domains
    [ { e_name = "serve_sequential_64"; e_pkey = "clients"; e_pval = clients;
        e_samples = seq_samples };
      { e_name = "serve_concurrent_64"; e_pkey = "clients"; e_pval = clients;
        e_samples = conc_samples };
      { e_name = "serve_coalesce_ratio"; e_pkey = "clients"; e_pval = clients;
        e_samples = ratios };
      { e_name = "serve_coalesce_floor"; e_pkey = "clients"; e_pval = clients;
        e_samples = [ 2.0 ] };
      { e_name = "serve_bit_mismatches"; e_pkey = "clients"; e_pval = clients;
        e_samples = [ float_of_int (1 + mismatches) ] };
      { e_name = "serve_drain_lost"; e_pkey = "clients"; e_pval = clients;
        e_samples = [ float_of_int (1 + drain_lost) ] };
      { e_name = "serve_reference"; e_pkey = "clients"; e_pval = clients;
        e_samples = [ 1.0 ] } ]

(* ------------------------------------------------------------------ *)

let all ~quick () =
  t1 ~quick ();
  t2 ~quick ();
  t3 ~quick ();
  t4 ~quick ();
  f2 ~quick ();
  f3 ~quick ();
  f8 ~quick ();
  d1 ~quick ();
  d2 ~quick ();
  d3 ~quick ();
  d4 ~quick ();
  ablations ~quick ()

open Cmdliner

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sizes for smoke runs.")

let domains_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~env:(Cmd.Env.info "PPVI_DOMAINS")
        ~docv:"N"
        ~doc:
          "Number of OCaml domains for parallel tensor kernels (default \
           \\$(env) or 1). Results are bit-identical for every value.")

let apply_domains = function Some n -> Parallel.set_domains n | None -> ()

let subcommand name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun quick domains ->
          apply_domains domains;
          f ~quick ())
      $ quick_flag $ domains_flag)

let () =
  let cmds =
    [ subcommand "t1" "Table 1 / Fig 10: VAE overhead" t1;
      subcommand "t2" "Table 2: AIR epoch timing" t2;
      subcommand "t3" "Table 3: expressivity grid" t3;
      subcommand "t4" "Table 4: cone objective values" t4;
      subcommand "f2" "Fig 2: ELBO on the cone" f2;
      subcommand "f3" "Fig 3: programmable guides on the cone" f3;
      subcommand "f8" "Fig 8: AIR training curves" f8;
      subcommand "d1" "Appendix D.1: coin" d1;
      subcommand "d2" "Appendix D.2: regression" d2;
      subcommand "d3" "Appendix D.3: SSVAE" d3;
      subcommand "d4" "Appendix D.4: CVAE" d4;
      subcommand "ablations" "Design-choice ablations" ablations;
      Cmd.v
        (Cmd.info "bechamel" ~doc:"Bechamel microbenchmarks")
        Term.(
          const (fun domains ->
              apply_domains domains;
              bechamel ())
          $ domains_flag);
      subcommand "json" "Machine-readable kernel + VAE benchmarks" json;
      subcommand "memory"
        "Memory-scaled training: remat latency/GC/peak-live and sharded \
         determinism -> BENCH_memory.json"
        memory;
      subcommand "serve"
        "Inference daemon: coalesced 64-client throughput, coalesce ratio, \
         bit-identity, drain drill -> BENCH_serve.json"
        serve_bench;
      subcommand "all" "Everything" all ]
  in
  let default =
    Term.(
      const (fun quick domains ->
          apply_domains domains;
          all ~quick ())
      $ quick_flag $ domains_flag)
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "ppvi-bench"
             ~doc:
               "Regenerate every table and figure of 'Probabilistic \
                Programming with Programmable Variational Inference'.")
          cmds))

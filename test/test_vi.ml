(* Tests for optimizers, the training loop, variational objectives, and
   the experiment models (cone, coin, regression, VAE, AIR, SSVAE,
   CVAE). End-to-end checks exploit conjugacy: on Gaussian models with
   known posteriors, trained guides must recover the analytic answer and
   the ELBO must approach the true log marginal likelihood. *)

let k0 = Prng.key 555

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

let log_normal x mu sigma =
  (-0.5 *. (((x -. mu) /. sigma) ** 2.))
  -. Float.log sigma
  -. (0.5 *. Float.log (2. *. Float.pi))

(* Optim *)

let test_sgd_step () =
  let store = Store.create () in
  Store.ensure store "x" (fun () -> Tensor.scalar 1.);
  let opt = Optim.sgd ~lr:0.1 in
  Optim.step opt Optim.Ascend store [ ("x", Tensor.scalar 2.) ];
  check_close "ascend" ~tol:1e-12 1.2 (Tensor.to_scalar (Store.tensor store "x"));
  Optim.step opt Optim.Descend store [ ("x", Tensor.scalar 2.) ];
  check_close "descend" ~tol:1e-12 1.0 (Tensor.to_scalar (Store.tensor store "x"))

let test_sgd_skips_nonfinite () =
  let store = Store.create () in
  Store.ensure store "x" (fun () -> Tensor.scalar 1.);
  let opt = Optim.sgd ~lr:0.1 in
  let reported = ref [] in
  Optim.step opt ~on_skip:(fun name _ -> reported := name :: !reported)
    Optim.Ascend store
    [ ("x", Tensor.scalar Float.nan) ];
  check_close "nan skipped" ~tol:0. 1. (Tensor.to_scalar (Store.tensor store "x"));
  Alcotest.(check int) "skip counted" 1 (Optim.skipped opt);
  Alcotest.(check (list string)) "skip reported" [ "x" ] !reported

let test_adam_minimizes_quadratic () =
  let store = Store.create () in
  Store.ensure store "x" (fun () -> Tensor.scalar 5.);
  let opt = Optim.adam ~lr:0.2 () in
  for _ = 1 to 300 do
    let x = Tensor.to_scalar (Store.tensor store "x") in
    (* d/dx (x - 3)^2 *)
    Optim.step opt Optim.Descend store [ ("x", Tensor.scalar (2. *. (x -. 3.))) ]
  done;
  check_close "adam converges" ~tol:0.05 3.
    (Tensor.to_scalar (Store.tensor store "x"))

(* Train + ELBO on a conjugate model: x ~ N(0,1), y | x ~ N(x,1),
   observed y. Posterior N(y/2, 1/sqrt 2); log evidence log N(y; 0, sqrt 2). *)

let conjugate_model y =
  let open Gen.Syntax in
  let* x = Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "x" in
  Gen.observe (Dist.normal_reparam x (Ad.scalar 1.)) (Ad.scalar y)

let conjugate_guide frame =
  let open Gen.Syntax in
  let mu = Store.Frame.get frame "cg.mu" in
  let std = Ad.add_scalar 1e-3 (Ad.softplus (Store.Frame.get frame "cg.rho")) in
  let* _ = Gen.sample (Dist.normal_reparam mu std) "x" in
  Gen.return ()

let train_conjugate y steps =
  let store = Store.create () in
  Store.ensure store "cg.mu" (fun () -> Tensor.scalar 0.);
  Store.ensure store "cg.rho" (fun () -> Tensor.scalar 0.);
  let optim = Optim.adam ~lr:0.05 () in
  let _ =
    Train.fit ~store ~optim ~steps ~samples:4
      ~objective:(fun frame _ ->
        Objectives.elbo ~model:(conjugate_model y) ~guide:(conjugate_guide frame))
      k0
  in
  store

let test_elbo_recovers_conjugate_posterior () =
  let y = 1.4 in
  let store = train_conjugate y 1500 in
  let mu = Tensor.to_scalar (Store.tensor store "cg.mu") in
  let rho = Tensor.to_scalar (Store.tensor store "cg.rho") in
  let std = 1e-3 +. Float.log (1. +. Float.exp rho) in
  check_close "posterior mean" ~tol:0.06 (y /. 2.) mu;
  check_close "posterior std" ~tol:0.06 (1. /. Float.sqrt 2.) std;
  (* At the optimum the ELBO equals the log evidence. *)
  let elbo =
    Train.eval ~store ~samples:4000
      ~objective:(fun frame ->
        Objectives.elbo ~model:(conjugate_model y) ~guide:(conjugate_guide frame))
      (Prng.key 42)
  in
  check_close "ELBO = log evidence" ~tol:0.05
    (log_normal y 0. (Float.sqrt 2.))
    elbo

let test_iwelbo_tighter_than_elbo () =
  (* With a deliberately bad guide, IWELBO must dominate the ELBO. *)
  let y = 1.4 in
  let store = Store.create () in
  Store.ensure store "cg.mu" (fun () -> Tensor.scalar (-1.));
  Store.ensure store "cg.rho" (fun () -> Tensor.scalar 0.8);
  let frame = Store.Frame.make store in
  let elbo =
    Adev.estimate ~samples:3000
      (Objectives.elbo ~model:(conjugate_model y) ~guide:(conjugate_guide frame))
      k0
  in
  let iw =
    Adev.estimate ~samples:3000
      (Objectives.iwelbo ~particles:10 ~model:(conjugate_model y)
         ~guide:(conjugate_guide frame) ())
      k0
  in
  Alcotest.(check bool)
    (Printf.sprintf "iwelbo %.3f > elbo %.3f" iw elbo)
    true (iw > elbo);
  Alcotest.(check bool) "both below log evidence" true
    (iw <= log_normal y 0. (Float.sqrt 2.) +. 0.05)

let test_elbo_of_sir_equals_iwelbo () =
  (* The paper's remark (Section 2): the IWELBO objective with guide q
     equals the ordinary ELBO applied to normalize(model, q). Check the
     two estimates agree in expectation. *)
  let y = 1.4 in
  let store = Store.create () in
  Store.ensure store "cg.mu" (fun () -> Tensor.scalar 0.3);
  Store.ensure store "cg.rho" (fun () -> Tensor.scalar 0.2);
  let frame = Store.Frame.make store in
  let n = 5 in
  let iw =
    Adev.estimate ~samples:4000
      (Objectives.iwelbo ~particles:n ~model:(conjugate_model y)
         ~guide:(conjugate_guide frame) ())
      k0
  in
  let q_sir =
    Gen.normalize (conjugate_model y)
      (Gen.importance_prior ~particles:n (Gen.Packed (conjugate_guide frame)))
  in
  let elbo_sir =
    Adev.estimate ~samples:4000
      (Objectives.elbo ~model:(conjugate_model y) ~guide:q_sir)
      (Prng.key 43)
  in
  check_close "ELBO(q_SIR) = IWELBO(q)" ~tol:0.06 iw elbo_sir

let test_wake_sleep_objectives_finite () =
  let y = 1.4 in
  let store = train_conjugate y 200 in
  let frame = Store.Frame.make store in
  let proposal = conjugate_guide frame in
  let q =
    Adev.estimate ~samples:200
      (Objectives.qwake ~particles:3 ~model:(conjugate_model y) ~proposal
         ~guide:(conjugate_guide frame))
      k0
  in
  let p =
    Adev.estimate ~samples:200
      (Objectives.pwake ~particles:3 ~model:(conjugate_model y) ~proposal)
      k0
  in
  Alcotest.(check bool) "qwake finite" true (Float.is_finite q);
  Alcotest.(check bool) "pwake finite" true (Float.is_finite p);
  let s =
    Adev.estimate ~samples:200
      (Objectives.symmetric_elbo ~particles:3 ~model:(conjugate_model y)
         ~proposal ~guide:(conjugate_guide frame))
      k0
  in
  Alcotest.(check bool) "symmetric finite" true (Float.is_finite s)

let test_rws_fits_model_and_guide () =
  (* Reweighted wake-sleep on a learnable-prior conjugate model: the
     wake-phase P objective drives the prior mean to the data (the
     marginal-likelihood optimum) while the wake-phase Q objective
     tracks the posterior. *)
  let y = 1.4 in
  let model frame =
    let theta = Store.Frame.get frame "ws.theta" in
    let open Gen.Syntax in
    let* x = Gen.sample (Dist.normal_reparam theta (Ad.scalar 1.)) "x" in
    Gen.observe (Dist.normal_reparam x (Ad.scalar 1.)) (Ad.scalar y)
  in
  let guide frame =
    let mu = Store.Frame.get frame "ws.mu" in
    let std = Ad.add_scalar 1e-3 (Ad.softplus (Store.Frame.get frame "ws.rho")) in
    let open Gen.Syntax in
    let* _ = Gen.sample (Dist.normal_reparam mu std) "x" in
    Gen.return ()
  in
  let store = Store.create () in
  List.iter
    (fun (name, v) -> Store.ensure store name (fun () -> Tensor.scalar v))
    [ ("ws.theta", -0.5); ("ws.mu", 0.); ("ws.rho", 0.) ];
  let optim = Optim.adam ~lr:0.03 () in
  let (_ : Train.report list) =
    Train.fit ~store ~optim ~steps:1200 ~samples:2
      ~objective:(fun frame _ ->
        let open Adev.Syntax in
        let proposal = guide (Store.Frame.detach frame) in
        let* p = Objectives.pwake ~particles:5 ~model:(model frame) ~proposal in
        let* q =
          Objectives.qwake ~particles:5 ~model:(model frame) ~proposal
            ~guide:(guide frame)
        in
        Adev.return (Ad.add p q))
      k0
  in
  let theta = Tensor.to_scalar (Store.tensor store "ws.theta") in
  let mu = Tensor.to_scalar (Store.tensor store "ws.mu") in
  check_close "theta -> data" ~tol:0.3 y theta;
  check_close "guide tracks posterior mean" ~tol:0.3 ((theta +. y) /. 2.) mu

(* Cone *)

let test_cone_elbo_improves () =
  let _, reports = Cone.train ~steps:400 Cone.Elbo k0 in
  let first = (List.nth reports 0).Train.objective in
  let late =
    List.fold_left ( +. ) 0.
      (List.filteri (fun i _ -> i >= 350) (List.map (fun r -> r.Train.objective) reports))
    /. 50.
  in
  Alcotest.(check bool)
    (Printf.sprintf "improved: %.2f -> %.2f" first late)
    true (late > first +. 1.)

let test_cone_guide_concentrates_on_circle () =
  let store, _ = Cone.train ~steps:1500 (Cone.Iwhvi 5) k0 in
  let pts = Cone.guide_samples store (Cone.Iwhvi 5) 200 (Prng.key 9) in
  let mean_r2 =
    List.fold_left (fun acc (x, y) -> acc +. ((x *. x) +. (y *. y))) 0. pts
    /. 200.
  in
  (* The posterior concentrates near radius^2 = 5. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean r^2 = %.2f in [3.5, 6.5]" mean_r2)
    true
    (mean_r2 > 3.5 && mean_r2 < 6.5)

let test_learned_reverse_kernel_trains () =
  (* Appendix A.1: the reverse kernel's parameters are part of the
     objective and train jointly; the learned-kernel IWHVI bound should
     be at least as tight as the uniform-kernel bound. *)
  let store_u, _ = Cone.train ~steps:1200 (Cone.Iwhvi 3) k0 in
  let store_l, _ = Cone.train ~steps:1200 (Cone.Iwhvi_learned 3) k0 in
  let v_u = Cone.final_value ~samples:2000 store_u (Cone.Iwhvi 3) (Prng.key 5) in
  let v_l =
    Cone.final_value ~samples:2000 store_l (Cone.Iwhvi_learned 3) (Prng.key 5)
  in
  Alcotest.(check bool)
    (Printf.sprintf "learned %.2f >= uniform %.2f - 0.5" v_l v_u)
    true
    (Float.is_finite v_l && v_l >= v_u -. 0.5)

let test_mcvi_trains_and_covers () =
  (* The MCVI guide (MH chain marginalized with [marginal]) must train
     and cover more of the ring than a mean-field guide. *)
  let store, reports = Mcvi.train ~train_steps:600 ~aux_particles:3 k0 in
  let window lo hi =
    let xs =
      List.filteri (fun i _ -> i >= lo && i < hi)
        (List.map (fun r -> r.Train.objective) reports)
    in
    List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let early = window 0 50 and late = window 550 600 in
  Alcotest.(check bool)
    (Printf.sprintf "MCVI objective reasonable: %.2f -> %.2f" early late)
    true
    (Float.is_finite late && late > early +. 1.);
  let pts = Mcvi.guide_samples store 200 (Prng.key 8) in
  let angles = List.map (fun (x, y) -> Float.atan2 y x) pts in
  let am = List.fold_left ( +. ) 0. angles /. 200. in
  let spread =
    Float.sqrt
      (List.fold_left (fun acc v -> acc +. ((v -. am) ** 2.)) 0. angles /. 200.)
  in
  Alcotest.(check bool)
    (Printf.sprintf "angular spread %.2f > 0.5" spread)
    true (spread > 0.5)

(* Coin (conjugate Beta-Bernoulli) *)

let test_coin_posterior () =
  let store, _, _ = Coin.train ~steps:800 ~samples:8 k0 in
  check_close "coin posterior mean" ~tol:0.05 Coin.exact_posterior_mean
    (Coin.posterior_mean store);
  Alcotest.(check bool) "coin elbo reasonable" true
    (Coin.final_elbo store (Prng.key 3) > -9.)

(* Regression *)

let test_regression_recovers_coefficients () =
  let store, _, _ = Regression.train ~steps:800 k0 in
  let a, ba, br, bar = Regression.coefficient_means store in
  let ta, tba, tbr, tbar = Data.regression_truth in
  check_close "a" ~tol:0.5 ta a;
  check_close "bA" ~tol:0.5 tba ba;
  check_close "bR" ~tol:0.25 tbr br;
  check_close "bAR" ~tol:0.25 tbar bar;
  let m, lo, hi =
    Regression.predict store ~ruggedness:3. ~in_africa:false (Prng.key 4)
  in
  Alcotest.(check bool) "credible interval brackets mean" true
    (lo <= m && m <= hi)

(* VAE *)

let test_vae_elbo_improves () =
  let _, reports = Vae.train ~steps:60 ~batch:32 (Prng.key 2) in
  let first = (List.nth reports 0).Train.objective in
  let last = (List.nth reports 59).Train.objective in
  Alcotest.(check bool)
    (Printf.sprintf "VAE improved %.1f -> %.1f" first last)
    true
    (last > first +. 10.)

(* AIR *)

let air_setup () =
  let store = Store.create () in
  Air.register store k0;
  let images, counts = Data.air_batch (Prng.key 77) 16 in
  (store, images, counts)

let test_air_all_strategies_run () =
  let store, images, _ = air_setup () in
  let optim = Optim.adam ~lr:1e-3 () in
  let baselines = Air.make_baselines () in
  List.iter
    (fun strat ->
      let mean, _ =
        Air.train_epoch ~pres:strat ~pos:strat ~store ~optim ~baselines
          ~objective:Air.Elbo ~images ~batch:8 k0
      in
      if not (Float.is_finite mean) then
        Alcotest.failf "AIR %s: non-finite objective" (Air.strategy_name strat))
    [ Air.RE; Air.RE_BL; Air.EN; Air.MV ]

let test_air_iwelbo_and_rws_run () =
  let store, images, _ = air_setup () in
  let optim = Optim.adam ~lr:1e-3 () in
  let baselines = Air.make_baselines () in
  List.iter
    (fun obj ->
      let mean, _ =
        Air.train_epoch ~store ~optim ~baselines ~objective:obj ~images
          ~batch:8 k0
      in
      if not (Float.is_finite mean) then
        Alcotest.failf "AIR %s: non-finite" (Air.objective_name obj))
    [ Air.Iwelbo 2; Air.Rws 2 ]

let test_air_count_inference_in_range () =
  let store, images, counts = air_setup () in
  let acc = Air.count_accuracy store images counts k0 in
  Alcotest.(check bool) "accuracy in [0,1]" true (acc >= 0. && acc <= 1.);
  let c = Air.infer_count store (Tensor.slice0 images 0) k0 in
  Alcotest.(check bool) "count in range" true (c >= 0 && c <= Data.max_objects)

(* Grid *)

let test_grid_ours_supports_everything () =
  List.iter
    (fun (combo, obj) ->
      (* The full-enumeration IWAE cells are exercised (more cheaply) by
         the benchmark harness. *)
      let heavy = obj = Grid.Iwae && (combo.Grid.pres = Air.EN || combo.Grid.pos = Air.EN) in
      if not heavy then
        match Grid.try_ours combo obj k0 with
        | Grid.Supported -> ()
        | Grid.Failed msg ->
          Alcotest.failf "ours failed %s/%s: %s" (Grid.combo_name combo)
            (Grid.objective_name obj) msg)
    Grid.rows

(* SSVAE *)

let test_ssvae_epoch_runs () =
  let store = Store.create () in
  Ssvae.register store k0;
  let images, labels = Data.digit_batch (Prng.key 5) 32 in
  let optim = Optim.adam ~lr:1e-3 () in
  let elbo, _ =
    Ssvae.train_epoch ~store ~optim ~images ~labels ~batch:8
      ~supervised_every:2 k0
  in
  Alcotest.(check bool) "finite unsup elbo" true (Float.is_finite elbo);
  let acc = Ssvae.classifier_accuracy store images labels in
  Alcotest.(check bool) "accuracy in [0,1]" true (acc >= 0. && acc <= 1.);
  let img = Ssvae.generate store ~label:3 k0 in
  Alcotest.(check int) "generated size" Data.sprite_dim (Tensor.size img)

(* CVAE *)

let test_cvae_epoch_runs () =
  let store = Store.create () in
  Cvae.register store k0;
  let images, _ = Data.digit_batch (Prng.key 6) 16 in
  let optim = Optim.adam ~lr:1e-3 () in
  let elbo, _ = Cvae.train_epoch ~store ~optim ~images ~batch:8 k0 in
  Alcotest.(check bool) "finite" true (Float.is_finite elbo);
  let filled = Cvae.fill_in store (Tensor.slice0 images 0) k0 in
  Alcotest.(check (array int)) "12x12"
    [| Data.sprite_side; Data.sprite_side |]
    (Tensor.shape filled);
  (* The observed quadrant is pasted back verbatim. *)
  let original = Data.quadrant (Tensor.slice0 images 0) Cvae.observed_quadrant in
  let copied = Data.quadrant filled Cvae.observed_quadrant in
  Alcotest.(check bool) "observed quadrant preserved" true
    (Tensor.approx_equal original copied)

(* Estimates run tape-free ([Adev.estimate], through [Train.eval]);
   their bits are pinned from the taped implementation. *)
let test_estimates_keep_bits () =
  let check what want got =
    let got = Int64.bits_of_float got in
    if got <> want then Alcotest.failf "%s: %Lx, pinned %Lx" what got want
  in
  List.iter
    (fun (kind, want) ->
      let store = Store.create () in
      Cone.register store (Prng.key 3);
      ignore
        (Train.fit ~store ~optim:(Optim.adam ~lr:0.05 ()) ~steps:100
           ~objective:(fun frame _ -> Cone.objective kind frame)
           (Prng.key 4));
      check (Cone.objective_name kind) want
        (Cone.final_value ~samples:500 store kind (Prng.key 5)))
    [ (Cone.Diwhvi (5, 5), 0xc010e6e718c45a6fL);
      (Cone.Iwhvi 3, 0xc015fe55fe25851bL);
      (Cone.Elbo, 0xc03b10a1e9236ea3L) ];
  let store = Store.create () in
  Coin.register store;
  check "coin final_elbo" 0xc01cb191293de933L (Coin.final_elbo store (Prng.key 9));
  let store = Store.create () in
  Vae.register store (Prng.key 1);
  let images, _ = Data.digit_batch (Prng.key 2) 64 in
  check "vae eval" 0xc05ece193161f988L
    (Train.eval ~samples:4 ~store
       ~objective:(fun frame -> Vae.elbo_per_datum frame images)
       (Prng.key 3))

(* A whole training run, as `ppvi vae --steps 30 --seed 3 --csv`: the
   matrix kernels and Adam on every step. The digest folds the Int64
   bits of the 30 objectives and of every final parameter; its pin was
   taken with the scalar-loop kernels and the map2 Adam. *)
let test_vae_training_keeps_bits () =
  let store, reports = Vae.train ~steps:30 ~batch:64 (Prng.key 3) in
  Alcotest.(check int) "reports" 30 (List.length reports);
  let values =
    List.map (fun r -> r.Train.objective) reports
    @ List.concat_map
        (fun name -> Array.to_list (Tensor.to_array (Store.tensor store name)))
        (Store.names store)
  in
  let digest =
    List.fold_left
      (fun h x -> Int64.(add (mul h 1099511628211L) (bits_of_float x)))
      0xcbf29ce484222325L values
  in
  let pin = 0x717614fdb7a7b4c4L in
  if digest <> pin then
    Alcotest.failf "digest %Lx over %d values, pinned %Lx" digest
      (List.length values) pin

(* The same for `ppvi cone --objective diwhvi --steps 200 --seed 3`:
   scalar sites under nested marginal/importance, so every Gen weight,
   ADEV surrogate and tape node of the interpreter path feeds these
   bits. The pin was taken with a Hashtbl-visited backward sweep, a
   closure per tape parent, kernel-dispatched rank-0 ops, full score
   terms at constant-density REINFORCE sites and an add per [Return]
   weight. *)
let test_cone_diwhvi_training_keeps_bits () =
  let kind = Cone.Diwhvi (5, 5) in
  let store, reports = Cone.train ~steps:200 kind (Prng.key 3) in
  Alcotest.(check int) "reports" 200 (List.length reports);
  let names = Store.names store in
  Alcotest.(check int) "parameters" 8 (List.length names);
  let values =
    List.map (fun r -> r.Train.objective) reports
    @ List.concat_map
        (fun name -> Array.to_list (Tensor.to_array (Store.tensor store name)))
        names
  in
  let digest =
    List.fold_left
      (fun h x -> Int64.(add (mul h 1099511628211L) (bits_of_float x)))
      0xcbf29ce484222325L values
  in
  let pin = 0x782753cba745b649L in
  if digest <> pin then
    Alcotest.failf "digest %Lx over %d values, pinned %Lx" digest
      (List.length values) pin

let suites =
  [ ( "vi",
      [ Alcotest.test_case "sgd step" `Quick test_sgd_step;
        Alcotest.test_case "sgd skips nan" `Quick test_sgd_skips_nonfinite;
        Alcotest.test_case "adam quadratic" `Quick test_adam_minimizes_quadratic;
        Alcotest.test_case "elbo conjugate posterior" `Slow
          test_elbo_recovers_conjugate_posterior;
        Alcotest.test_case "iwelbo tighter" `Slow test_iwelbo_tighter_than_elbo;
        Alcotest.test_case "elbo(sir) = iwelbo" `Slow
          test_elbo_of_sir_equals_iwelbo;
        Alcotest.test_case "wake-sleep finite" `Slow
          test_wake_sleep_objectives_finite;
        Alcotest.test_case "rws fits model and guide" `Slow
          test_rws_fits_model_and_guide;
        Alcotest.test_case "cone elbo improves" `Slow test_cone_elbo_improves;
        Alcotest.test_case "cone circle" `Slow
          test_cone_guide_concentrates_on_circle;
        Alcotest.test_case "learned reverse kernel" `Slow
          test_learned_reverse_kernel_trains;
        Alcotest.test_case "mcvi trains" `Slow test_mcvi_trains_and_covers;
        Alcotest.test_case "coin posterior" `Slow test_coin_posterior;
        Alcotest.test_case "regression coefficients" `Slow
          test_regression_recovers_coefficients;
        Alcotest.test_case "vae improves" `Slow test_vae_elbo_improves;
        Alcotest.test_case "air strategies run" `Slow
          test_air_all_strategies_run;
        Alcotest.test_case "air iwelbo/rws run" `Slow
          test_air_iwelbo_and_rws_run;
        Alcotest.test_case "air count inference" `Quick
          test_air_count_inference_in_range;
        Alcotest.test_case "grid ours all supported" `Slow
          test_grid_ours_supports_everything;
        Alcotest.test_case "ssvae epoch" `Slow test_ssvae_epoch_runs;
        Alcotest.test_case "cvae epoch" `Slow test_cvae_epoch_runs;
        Alcotest.test_case "estimates keep their bits" `Quick
          test_estimates_keep_bits;
        Alcotest.test_case "vae training keeps its bits" `Quick
          test_vae_training_keeps_bits;
        Alcotest.test_case "cone DIWHVI training keeps its bits" `Quick
          test_cone_diwhvi_training_keeps_bits ] ) ]

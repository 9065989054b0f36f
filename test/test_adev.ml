(* Unbiasedness tests for the ADEV gradient estimators (Theorem 5.2).

   For objectives with closed-form gradients we check that (a) exact
   strategies (ENUM; MVD for flip with a deterministic continuation)
   produce the analytic gradient on a single sample, and (b) stochastic
   strategies (REINFORCE, MVD for the normal, REPARAM) produce it on
   average, within law-of-large-numbers tolerances. We also cross-check
   the reverse-mode surrogate construction against the independent
   forward-mode transformation of Fig. 6. *)

let k0 = Prng.key 77

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

(* Average gradient of [objective theta] over [n] independent runs. *)
let mean_grad ?(n = 20000) build =
  let total_v = ref 0. and total_g = ref 0. in
  Array.iter
    (fun key ->
      let theta, obj = build () in
      let v, grads = Adev.grad ~params:[ ("theta", theta) ] obj key in
      total_v := !total_v +. v;
      total_g := !total_g +. Tensor.to_scalar (List.assoc "theta" grads))
    (Prng.split_many k0 n);
  (!total_v /. float_of_int n, !total_g /. float_of_int n)

let sq x = Ad.mul x x

(* E_{x ~ N(theta, 1)}[x^2] = theta^2 + 1, gradient 2 theta. *)

let test_reparam_normal () =
  let open Adev.Syntax in
  let v, g =
    mean_grad ~n:4000 (fun () ->
        let theta = Ad.scalar 1.3 in
        ( theta,
          let* x = Adev.sample (Dist.normal_reparam theta (Ad.scalar 1.)) in
          Adev.return (sq x) ))
  in
  check_close "reparam value" ~tol:0.15 (1. +. (1.3 ** 2.)) v;
  check_close "reparam grad" ~tol:0.15 2.6 g

let test_reinforce_normal () =
  let open Adev.Syntax in
  let v, g =
    mean_grad ~n:40000 (fun () ->
        let theta = Ad.scalar 1.3 in
        ( theta,
          let* x = Adev.sample (Dist.normal_reinforce theta (Ad.scalar 1.)) in
          Adev.return (sq x) ))
  in
  check_close "reinforce value" ~tol:0.1 (1. +. (1.3 ** 2.)) v;
  check_close "reinforce grad" ~tol:0.25 2.6 g

let test_mvd_normal_mean () =
  let open Adev.Syntax in
  let _, g =
    mean_grad ~n:8000 (fun () ->
        let theta = Ad.scalar 1.3 in
        ( theta,
          let* x = Adev.sample (Dist.normal_mvd theta (Ad.scalar 1.)) in
          Adev.return (sq x) ))
  in
  check_close "mvd mean grad" ~tol:0.15 2.6 g

(* E_{x ~ N(0, theta)}[x^2] = theta^2, gradient 2 theta. *)
let test_mvd_normal_scale () =
  let open Adev.Syntax in
  let _, g =
    mean_grad ~n:20000 (fun () ->
        let theta = Ad.scalar 0.9 in
        ( theta,
          let* x = Adev.sample (Dist.normal_mvd (Ad.scalar 0.) theta) in
          Adev.return (sq x) ))
  in
  check_close "mvd scale grad" ~tol:0.15 1.8 g

let test_reparam_normal_scale () =
  let open Adev.Syntax in
  let _, g =
    mean_grad ~n:4000 (fun () ->
        let theta = Ad.scalar 0.9 in
        ( theta,
          let* x = Adev.sample (Dist.normal_reparam (Ad.scalar 0.) theta) in
          Adev.return (sq x) ))
  in
  check_close "reparam scale grad" ~tol:0.1 1.8 g

(* E_{b ~ flip(theta)}[if b then 3 else 1] = 1 + 2 theta; gradient 2. *)

let branchy theta sample_flip =
  let open Adev.Syntax in
  ( theta,
    let* b = sample_flip theta in
    Adev.return (if b then Ad.scalar 3. else Ad.scalar 1.) )

let test_flip_enum_exact () =
  (* ENUM is exact: a single run yields the analytic value and gradient. *)
  let theta = Ad.scalar 0.3 in
  let _, obj = branchy theta (fun t -> Adev.sample (Dist.flip_enum t)) in
  let v, grads = Adev.grad ~params:[ ("theta", theta) ] obj k0 in
  check_close "enum value" ~tol:1e-9 1.6 v;
  check_close "enum grad" ~tol:1e-9 2.
    (Tensor.to_scalar (List.assoc "theta" grads))

let test_flip_mvd_exact_for_deterministic_continuation () =
  (* With a deterministic continuation the flip MVD coupling is also
     exact on every sample. *)
  let theta = Ad.scalar 0.3 in
  let _, obj = branchy theta (fun t -> Adev.sample (Dist.flip_mvd t)) in
  let _, grads = Adev.grad ~params:[ ("theta", theta) ] obj k0 in
  check_close "flip mvd grad" ~tol:1e-9 2.
    (Tensor.to_scalar (List.assoc "theta" grads))

let test_flip_reinforce () =
  let _, g =
    mean_grad ~n:40000 (fun () ->
        branchy (Ad.scalar 0.3) (fun t -> Adev.sample (Dist.flip_reinforce t)))
  in
  check_close "flip reinforce grad" ~tol:0.1 2. g

let test_flip_reinforce_baseline () =
  let cell = Baseline.create () in
  let _, g =
    mean_grad ~n:40000 (fun () ->
        branchy (Ad.scalar 0.3) (fun t ->
            Adev.sample (Dist.flip_reinforce_bl cell t)))
  in
  check_close "flip reinforce+bl grad" ~tol:0.1 2. g

let test_baseline_reduces_variance () =
  (* Sample variance of the per-run gradient, with and without the
     baseline, on the same objective. *)
  let grad_samples build n =
    Array.map
      (fun key ->
        let theta, obj = build () in
        let _, grads = Adev.grad ~params:[ ("theta", theta) ] obj key in
        Tensor.to_scalar (List.assoc "theta" grads))
      (Prng.split_many (Prng.key 9) n)
  in
  let variance xs =
    let n = float_of_int (Array.length xs) in
    let m = Array.fold_left ( +. ) 0. xs /. n in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. n
  in
  let plain =
    grad_samples
      (fun () ->
        branchy (Ad.scalar 0.3) (fun t -> Adev.sample (Dist.flip_reinforce t)))
      4000
  in
  let cell = Baseline.create () in
  (* Warm the baseline before measuring. *)
  let with_bl =
    grad_samples
      (fun () ->
        branchy (Ad.scalar 0.3) (fun t ->
            Adev.sample (Dist.flip_reinforce_bl cell t)))
      4000
  in
  Alcotest.(check bool)
    (Printf.sprintf "baseline variance %.3f < plain %.3f" (variance with_bl)
       (variance plain))
    true
    (variance with_bl < variance plain)

let test_categorical_enum_exact () =
  (* E over a 3-way choice of [0; 10; 20] indexed values. *)
  let theta = Ad.scalar 0.2 in
  let open Adev.Syntax in
  let probs =
    (* probs = [theta; 2 theta; 1 - 3 theta] *)
    Ad.stack0
      [ theta; Ad.scale 2. theta;
        Ad.sub (Ad.scalar 1.) (Ad.scale 3. theta) ]
  in
  let obj =
    let* i = Adev.sample (Dist.categorical_enum probs) in
    Adev.return (Ad.scalar (float_of_int (10 * i)))
  in
  let v, grads = Adev.grad ~params:[ ("theta", theta) ] obj k0 in
  (* E = 10*2theta + 20*(1-3theta) = 20 - 40 theta; dE/dtheta = -40. *)
  check_close "cat enum value" ~tol:1e-9 12. v;
  check_close "cat enum grad" ~tol:1e-9 (-40.)
    (Tensor.to_scalar (List.assoc "theta" grads))

let test_score () =
  (* E (do { score (2 theta); return 3 }) = 6 theta; gradient 6. *)
  let theta = Ad.scalar 0.7 in
  let open Adev.Syntax in
  let obj =
    let* () = Adev.score (Ad.scale 2. theta) in
    Adev.return (Ad.scalar 3.)
  in
  let v, grads = Adev.grad ~params:[ ("theta", theta) ] obj k0 in
  check_close "score value" ~tol:1e-9 4.2 v;
  check_close "score grad" ~tol:1e-9 6.
    (Tensor.to_scalar (List.assoc "theta" grads))

let test_score_with_reinforce_site () =
  (* E_{b ~ flip p}[score (if b then 2 else 1); return 1]
     = 2p + (1-p) = 1 + p; gradient 1 — exercises the interaction of the
     score weight with the score-function term. *)
  let _, g =
    mean_grad ~n:40000 (fun () ->
        let theta = Ad.scalar 0.4 in
        let open Adev.Syntax in
        ( theta,
          let* b = Adev.sample (Dist.flip_reinforce theta) in
          let* () = Adev.score (Ad.scalar (if b then 2. else 1.)) in
          Adev.return (Ad.scalar 1.) ))
  in
  check_close "score+reinforce grad" ~tol:0.1 1. g

let test_compound_mixed_strategies () =
  (* Two interacting sites with different strategies:
     E_{b ~ flip p, x ~ N(mu(b), 1)}[x^2] where mu(true) = theta,
     mu(false) = 0.  E = p (theta^2 + 1) + (1 - p) * 1;
     dE/dtheta = 2 p theta. *)
  let p = 0.3 and th = 1.1 in
  let open Adev.Syntax in
  let _, g =
    mean_grad ~n:8000 (fun () ->
        let theta = Ad.scalar th in
        ( theta,
          let* b = Adev.sample (Dist.flip_enum (Ad.scalar p)) in
          let mu = if b then theta else Ad.scalar 0. in
          let* x = Adev.sample (Dist.normal_reparam mu (Ad.scalar 1.)) in
          Adev.return (sq x) ))
  in
  check_close "mixed strategies grad" ~tol:0.1 (2. *. p *. th) g

let test_expectation_mean_unbiased () =
  let open Adev.Syntax in
  let theta = Ad.scalar 1.3 in
  let obj =
    let* x = Adev.sample (Dist.normal_reparam theta (Ad.scalar 1.)) in
    Adev.return (sq x)
  in
  let est = Adev.estimate ~samples:4000 obj k0 in
  check_close "batched estimate" ~tol:0.15 (1. +. (1.3 ** 2.)) est

(* Cross-validation against the forward-mode ADEV of Fig. 6. *)

let test_forward_reverse_agree_reinforce () =
  (* Objective: E_{x ~ N(theta, 1)}[sin x]; compare the two modes'
     estimates of d/dtheta (they are different unbiased estimators of the
     same derivative). *)
  let theta = 0.6 in
  let forward =
    Forward.grad_estimate ~samples:60000
      (fun th ->
        let open Forward in
        let* x = normal_reinforce th.(0) (constant 1.) in
        return (sin_d x))
      [| theta |] 0 (Prng.key 3)
  in
  let reverse =
    let n = 60000 in
    let total = ref 0. in
    Array.iter
      (fun key ->
        let th = Ad.scalar theta in
        let open Adev.Syntax in
        let obj =
          let* x = Adev.sample (Dist.normal_reinforce th (Ad.scalar 1.)) in
          (* sin is not an Ad primitive; the sample is rigid, so a custom
             node on the primal is legitimate here. *)
          Adev.return
            (Ad.custom
               ~value:(Tensor.scalar (Float.sin (Tensor.to_scalar (Ad.value x))))
               ~parents:[])
        in
        let _, grads = Adev.grad ~params:[ ("theta", th) ] obj key in
        total := !total +. Tensor.to_scalar (List.assoc "theta" grads))
      (Prng.split_many (Prng.key 4) n);
    !total /. float_of_int n
  in
  (* Closed form: d/dtheta E[sin x] = cos(theta) e^{-1/2}. *)
  let exact = Float.cos theta *. Float.exp (-0.5) in
  check_close "forward vs exact" ~tol:0.06 exact forward;
  check_close "reverse vs exact" ~tol:0.06 exact reverse;
  check_close "forward vs reverse" ~tol:0.1 forward reverse

let test_forward_flip_enum_exact () =
  let g =
    Forward.grad_estimate ~samples:1
      (fun th ->
        let open Forward in
        let* b = flip_enum th.(0) in
        return (constant (if b then 3. else 1.)))
      [| 0.3 |] 0 (Prng.key 5)
  in
  check_close "forward enum grad" ~tol:1e-9 2. g

let test_forward_flip_mvd () =
  let g =
    Forward.grad_estimate ~samples:1
      (fun th ->
        let open Forward in
        let* b = flip_mvd th.(0) in
        return (constant (if b then 3. else 1.)))
      [| 0.3 |] 0 (Prng.key 5)
  in
  check_close "forward flip mvd grad" ~tol:1e-9 2. g

let test_forward_normal_mvd () =
  (* d/dtheta E_{x ~ N(theta, 1)}[x^2] = 2 theta. *)
  let g =
    Forward.grad_estimate ~samples:20000
      (fun th ->
        let open Forward in
        let* x = normal_mvd th.(0) (constant 1.) in
        return (mul x x))
      [| 1.3 |] 0 (Prng.key 6)
  in
  check_close "forward normal mvd" ~tol:0.15 2.6 g

let test_forward_reparam () =
  let g =
    Forward.grad_estimate ~samples:4000
      (fun th ->
        let open Forward in
        let* x = normal_reparam th.(0) (constant 1.) in
        return (mul x x))
      [| 1.3 |] 0 (Prng.key 7)
  in
  check_close "forward reparam" ~tol:0.15 2.6 g

let test_forward_score () =
  let g =
    Forward.grad_estimate ~samples:1
      (fun th ->
        let open Forward in
        let* () = score (mul (constant 2.) th.(0)) in
        return (constant 3.))
      [| 0.7 |] 0 (Prng.key 8)
  in
  check_close "forward score" ~tol:1e-9 6. g

(* Property: ENUM on flip is exact for random probabilities and branch
   values — gradient equals (f true - f false) on every single run. *)
let prop_enum_exact =
  QCheck.Test.make ~name:"flip ENUM gradient exact" ~count:50
    QCheck.(triple (float_range 0.05 0.95) (float_range (-3.) 3.)
              (float_range (-3.) 3.))
    (fun (p, ft, ff) ->
      let theta = Ad.scalar p in
      let open Adev.Syntax in
      let obj =
        let* b = Adev.sample (Dist.flip_enum theta) in
        Adev.return (Ad.scalar (if b then ft else ff))
      in
      let _, grads = Adev.grad ~params:[ ("theta", theta) ] obj k0 in
      Float.abs (Tensor.to_scalar (List.assoc "theta" grads) -. (ft -. ff))
      < 1e-9)

(* The Theorem 5.2 property: all strategy versions of a primitive denote
   the same distribution, so gradient estimators built from any of them
   target the same objective. ENUM is exact and serves as the oracle;
   REINFORCE and MVD must agree with it in expectation. *)
let prop_strategies_agree =
  QCheck.Test.make ~name:"flip strategies estimate the same gradient"
    ~count:12
    QCheck.(triple (float_range 0.15 0.85) (float_range (-2.) 2.)
              (float_range (-2.) 2.))
    (fun (p, ft, ff) ->
      let objective sample_flip =
        let theta = Ad.scalar p in
        ( theta,
          let open Adev.Syntax in
          let* b = sample_flip theta in
          Adev.return (Ad.scalar (if b then ft else ff)) )
      in
      let exact =
        let theta, obj = objective (fun t -> Adev.sample (Dist.flip_enum t)) in
        let _, grads = Adev.grad ~params:[ ("theta", theta) ] obj k0 in
        Tensor.to_scalar (List.assoc "theta" grads)
      in
      let mean_of sample_flip n =
        let total = ref 0. in
        for i = 0 to n - 1 do
          let theta, obj = objective sample_flip in
          let _, grads =
            Adev.grad ~params:[ ("theta", theta) ] obj (Prng.fold_in k0 i)
          in
          total := !total +. Tensor.to_scalar (List.assoc "theta" grads)
        done;
        !total /. float_of_int n
      in
      let tol = 0.15 +. (0.1 *. Float.abs exact) in
      Float.abs (mean_of (fun t -> Adev.sample (Dist.flip_reinforce t)) 6000 -. exact) < tol
      && Float.abs (mean_of (fun t -> Adev.sample (Dist.flip_mvd t)) 500 -. exact) < 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_enum_exact; prop_strategies_agree ]

(* ------------------------------------------------------------------ *)
(* A REINFORCE site whose log density is a leaf returns the
   continuation's value itself: its score term has no path to any
   parameter. Checked against the full-term build, which a log density
   wrapped in a (value-preserving) [add_scalar 0.] node forces. *)

let with_full_term (d : 'a Dist.t) =
  { d with Dist.log_density = (fun x -> Ad.add_scalar 0. (d.Dist.log_density x)) }

let bits x = Int64.bits_of_float x

(* [run_site d k] samples [d] at one REINFORCE site; returns the
   surrogate and whether it is the continuation's own node. *)
let run_site d k =
  let y_node = ref None in
  let s =
    Adev.run (Adev.sample d) (Prng.key 5) (fun x ->
        let y = k x in
        y_node := Some y;
        y)
  in
  (s, match !y_node with Some y -> s == y | None -> false)

let test_constant_density_score_term () =
  let build uniform =
    let theta = Ad.scalar 0.75 in
    let s, is_y = run_site (uniform 0. 2.) (fun x -> Ad.mul theta (Ad.exp x)) in
    Ad.backward s;
    (s, is_y, Ad.grad theta)
  in
  let s, is_y, g = build Dist.uniform in
  let s', is_y', g' = build (fun lo hi -> with_full_term (Dist.uniform lo hi)) in
  Alcotest.(check bool) "leaf density: y itself" true is_y;
  Alcotest.(check bool) "full-term build" false is_y';
  Alcotest.(check bool) "surrogate bits" true
    (Int64.equal (bits (Ad.to_float s)) (bits (Ad.to_float s')));
  Alcotest.(check bool) "gradient bits" true
    (Int64.equal (bits (Tensor.to_scalar g)) (bits (Tensor.to_scalar g')));
  (* y = -inf: the full term's value is not y's (it is a NaN), so the
     term stays. *)
  let s, is_y =
    run_site (Dist.uniform 0. 2.) (fun x -> Ad.add x (Ad.scalar Float.neg_infinity))
  in
  Alcotest.(check bool) "y = -inf keeps the term" false is_y;
  Alcotest.(check bool) "y = -inf surrogate is the full term's NaN" true
    (Float.is_nan (Ad.to_float s));
  (* A density with parameters keeps its term. *)
  let a = Ad.scalar 1.5 and b = Ad.scalar 2. in
  let _, is_y =
    run_site (Dist.scaled_beta_reinforce ~lo:0. ~hi:1. a b) (fun x -> Ad.mul x x)
  in
  Alcotest.(check bool) "parametric density keeps the term" false is_y

(* Cone IWHVI, DIWHVI and IWHVI with the learned reverse kernel, built
   with the guide's and reverse kernel's uniform angle as is and with
   its score terms forced: same surrogate bits, same bits in every
   parameter gradient. *)
let test_cone_score_terms_keep_bits () =
  let two_pi = 2. *. Float.pi in
  let pos rho = Ad.add_scalar 1e-3 (Ad.softplus rho) in
  let guide_joint uniform frame =
    let open Gen.Syntax in
    let p = Store.Frame.get frame in
    let radius = pos (p "cone.joint.radius") in
    let spread = pos (p "cone.joint.spread") in
    let* v = Gen.sample (uniform 0. two_pi) "v" in
    let vf = Gen.rigid v in
    let* _ =
      Gen.sample (Dist.normal_reparam (Ad.scale (Float.cos vf) radius) spread) "x"
    in
    let* _ =
      Gen.sample (Dist.normal_reparam (Ad.scale (Float.sin vf) radius) spread) "y"
    in
    Gen.return ()
  in
  let reverse uniform _ = Gen.Packed (Gen.sample (uniform 0. two_pi) "v") in
  let objectives uniform frame =
    let keep = [ "x"; "y" ] and model = Cone.model in
    [ ( "IWHVI(5)",
        Objectives.hvi ~keep ~reverse:(reverse uniform) ~aux_particles:5 ~model
          ~guide_joint:(guide_joint uniform frame) () );
      ( "DIWHVI(5,5)",
        Objectives.diwhvi ~particles:5 ~keep ~reverse:(reverse uniform)
          ~aux_particles:5 ~model ~guide_joint:(guide_joint uniform frame) );
      ( "IWHVI+learned(3)",
        Objectives.hvi ~keep ~reverse:(Cone.reverse_kernel_learned frame)
          ~aux_particles:3 ~model ~guide_joint:(guide_joint uniform frame) () ) ]
  in
  let store = Store.create () in
  Cone.register store (Prng.key 0);
  let run uniform i key =
    let frame = Store.Frame.make store in
    let _, obj = List.nth (objectives uniform frame) i in
    let s = Adev.expectation obj key in
    Ad.backward s;
    ( bits (Ad.to_float s),
      List.map
        (fun (name, g) -> (name, Array.map bits (Tensor.to_array g)))
        (Store.Frame.grads frame) )
  in
  let full lo hi = with_full_term (Dist.uniform lo hi) in
  List.iteri
    (fun i (name, _) ->
      for seed = 0 to 9 do
        let key = Prng.fold_in (Prng.key 41) seed in
        let v, gs = run Dist.uniform i key and v', gs' = run full i key in
        if not (Int64.equal v v') then
          Alcotest.failf "%s seed %d: surrogate %Lx, full term %Lx" name seed v v';
        Alcotest.(check int) (name ^ " parameters") (List.length gs') (List.length gs);
        List.iter2
          (fun (n, g) (n', g') ->
            if n <> n' || g <> g' then
              Alcotest.failf "%s seed %d: gradient of %s differs" name seed n)
          gs gs'
      done)
    (objectives Dist.uniform (Store.Frame.make store))

let suites =
  [ ( "adev",
      [ Alcotest.test_case "reparam normal" `Slow test_reparam_normal;
        Alcotest.test_case "reinforce normal" `Slow test_reinforce_normal;
        Alcotest.test_case "mvd normal mean" `Slow test_mvd_normal_mean;
        Alcotest.test_case "mvd normal scale" `Slow test_mvd_normal_scale;
        Alcotest.test_case "reparam normal scale" `Slow
          test_reparam_normal_scale;
        Alcotest.test_case "flip enum exact" `Quick test_flip_enum_exact;
        Alcotest.test_case "flip mvd exact" `Quick
          test_flip_mvd_exact_for_deterministic_continuation;
        Alcotest.test_case "flip reinforce" `Slow test_flip_reinforce;
        Alcotest.test_case "flip reinforce baseline" `Slow
          test_flip_reinforce_baseline;
        Alcotest.test_case "baseline reduces variance" `Slow
          test_baseline_reduces_variance;
        Alcotest.test_case "categorical enum exact" `Quick
          test_categorical_enum_exact;
        Alcotest.test_case "score" `Quick test_score;
        Alcotest.test_case "score with reinforce" `Slow
          test_score_with_reinforce_site;
        Alcotest.test_case "compound mixed strategies" `Slow
          test_compound_mixed_strategies;
        Alcotest.test_case "batched expectation" `Slow
          test_expectation_mean_unbiased;
        Alcotest.test_case "forward vs reverse (reinforce)" `Slow
          test_forward_reverse_agree_reinforce;
        Alcotest.test_case "forward flip enum" `Quick
          test_forward_flip_enum_exact;
        Alcotest.test_case "forward flip mvd" `Quick test_forward_flip_mvd;
        Alcotest.test_case "forward normal mvd" `Slow test_forward_normal_mvd;
        Alcotest.test_case "forward reparam" `Slow test_forward_reparam;
        Alcotest.test_case "forward score" `Quick test_forward_score;
        Alcotest.test_case "constant-density site drops its score term" `Quick
          test_constant_density_score_term;
        Alcotest.test_case "cone score terms keep their bits" `Quick
          test_cone_score_terms_keep_bits ]
      @ qcheck_cases ) ]

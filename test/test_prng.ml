(* Tests for the splittable PRNG: determinism, split independence, and
   moment checks for every sampler (law-of-large-numbers tolerances). *)

let k0 = Prng.key 42

let draw_many n f =
  Array.map f (Prng.split_many k0 n)

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let var xs =
  let m = mean xs in
  mean (Array.map (fun x -> (x -. m) ** 2.) xs)

let check_close name ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g, got %g (tol %g)" name expected actual tol

let test_determinism () =
  let a = Prng.uniform (Prng.key 7) in
  let b = Prng.uniform (Prng.key 7) in
  Alcotest.(check (float 0.)) "same seed same draw" a b;
  let c = Prng.uniform (Prng.key 8) in
  Alcotest.(check bool) "different seed different draw" true (a <> c)

let test_split_independence () =
  let k1, k2 = Prng.split k0 in
  Alcotest.(check bool) "children differ" true
    (Prng.uniform k1 <> Prng.uniform k2);
  Alcotest.(check bool) "child differs from parent" true
    (Prng.uniform k1 <> Prng.uniform k0)

let test_split_many_distinct () =
  let ks = Prng.split_many k0 100 in
  let draws = Array.map Prng.uniform ks in
  let sorted = Array.copy draws in
  Array.sort compare sorted;
  let distinct = ref true in
  for i = 1 to 99 do
    if sorted.(i) = sorted.(i - 1) then distinct := false
  done;
  Alcotest.(check bool) "all distinct" true !distinct

let test_fold_in () =
  Alcotest.(check bool) "fold_in varies" true
    (Prng.uniform (Prng.fold_in k0 1) <> Prng.uniform (Prng.fold_in k0 2))

let test_uniform_range_bounds () =
  let xs = draw_many 1000 Prng.uniform in
  Alcotest.(check bool) "in [0,1)" true
    (Array.for_all (fun x -> x >= 0. && x < 1.) xs);
  check_close "uniform mean" ~tol:0.03 0.5 (mean xs);
  check_close "uniform var" ~tol:0.01 (1. /. 12.) (var xs)

let test_normal_moments () =
  let xs = draw_many 20000 Prng.normal in
  check_close "normal mean" ~tol:0.03 0. (mean xs);
  check_close "normal var" ~tol:0.05 1. (var xs)

let test_normal_mean_std () =
  let xs = draw_many 20000 (fun k -> Prng.normal_mean_std k 3. 0.5) in
  check_close "shifted mean" ~tol:0.02 3. (mean xs);
  check_close "shifted var" ~tol:0.02 0.25 (var xs)

let test_exponential_moments () =
  let xs = draw_many 20000 Prng.exponential in
  check_close "exp mean" ~tol:0.05 1. (mean xs);
  check_close "exp var" ~tol:0.15 1. (var xs)

let test_bernoulli () =
  let xs = draw_many 20000 (fun k -> if Prng.bernoulli k 0.3 then 1. else 0.) in
  check_close "bernoulli mean" ~tol:0.02 0.3 (mean xs)

let test_categorical_frequencies () =
  let w = [| 1.; 2.; 7. |] in
  let counts = Array.make 3 0 in
  Array.iter
    (fun k -> counts.(Prng.categorical k w) <- counts.(Prng.categorical k w) + 1)
    (Prng.split_many k0 20000);
  let freq i = float_of_int counts.(i) /. 20000. in
  check_close "cat p0" ~tol:0.02 0.1 (freq 0);
  check_close "cat p1" ~tol:0.02 0.2 (freq 1);
  check_close "cat p2" ~tol:0.02 0.7 (freq 2)

let test_categorical_logits () =
  let logits = [| 0.; Float.log 2.; Float.log 7. |] in
  let counts = Array.make 3 0 in
  Array.iter
    (fun k ->
      let i = Prng.categorical_logits k logits in
      counts.(i) <- counts.(i) + 1)
    (Prng.split_many k0 20000);
  check_close "gumbel p2" ~tol:0.02 0.7 (float_of_int counts.(2) /. 20000.)

let test_categorical_invalid () =
  Alcotest.(check bool) "zero weights raise" true
    (try
       ignore (Prng.categorical k0 [| 0.; 0. |]);
       false
     with Invalid_argument _ -> true)

let test_gamma_moments () =
  let shape = 2.5 in
  let xs = draw_many 20000 (fun k -> Prng.gamma k shape) in
  check_close "gamma mean" ~tol:0.08 shape (mean xs);
  check_close "gamma var" ~tol:0.25 shape (var xs)

let test_gamma_small_shape () =
  let xs = draw_many 20000 (fun k -> Prng.gamma k 0.5) in
  check_close "gamma(0.5) mean" ~tol:0.05 0.5 (mean xs);
  Alcotest.(check bool) "positive" true (Array.for_all (fun x -> x > 0.) xs)

let test_beta_moments () =
  let a = 2. and b = 3. in
  let xs = draw_many 20000 (fun k -> Prng.beta k a b) in
  check_close "beta mean" ~tol:0.02 (a /. (a +. b)) (mean xs);
  let v = a *. b /. (((a +. b) ** 2.) *. (a +. b +. 1.)) in
  check_close "beta var" ~tol:0.01 v (var xs)

let test_poisson_moments () =
  let rate = 4.2 in
  let xs = draw_many 20000 (fun k -> float_of_int (Prng.poisson k rate)) in
  check_close "poisson mean" ~tol:0.1 rate (mean xs);
  check_close "poisson var" ~tol:0.3 rate (var xs)

let test_poisson_large_rate () =
  let rate = 100. in
  let xs = draw_many 5000 (fun k -> float_of_int (Prng.poisson k rate)) in
  check_close "poisson(100) mean" ~tol:1.5 rate (mean xs)

let test_weibull_moments () =
  (* Weibull(shape=2, scale=sqrt 2) has mean scale * Gamma(1.5). *)
  let xs =
    draw_many 20000 (fun k -> Prng.weibull k ~shape:2. ~scale:(Float.sqrt 2.))
  in
  let expected = Float.sqrt 2. *. 0.8862269254527579 in
  check_close "weibull mean" ~tol:0.02 expected (mean xs)

let test_maxwell_moments () =
  (* Maxwell mean is 2 sqrt(2/pi). *)
  let xs = draw_many 20000 Prng.maxwell in
  check_close "maxwell mean" ~tol:0.03
    (2. *. Float.sqrt (2. /. Float.pi))
    (mean xs);
  check_close "maxwell second moment" ~tol:0.1 3. (mean (Array.map (fun x -> x *. x) xs))

let test_uniform_ks () =
  (* Kolmogorov-Smirnov test of uniformity at a generous alpha: the KS
     statistic of n = 5000 draws must be below 1.95 / sqrt n
     (alpha ~ 0.001). *)
  let n = 5000 in
  let xs = Array.map Prng.uniform (Prng.split_many (Prng.key 99) n) in
  Array.sort compare xs;
  let d = ref 0. in
  Array.iteri
    (fun i x ->
      let ecdf_hi = float_of_int (i + 1) /. float_of_int n in
      let ecdf_lo = float_of_int i /. float_of_int n in
      d := Float.max !d (Float.max (Float.abs (ecdf_hi -. x)) (Float.abs (x -. ecdf_lo))))
    xs;
  let bound = 1.95 /. Float.sqrt (float_of_int n) in
  if !d > bound then
    Alcotest.failf "KS statistic %.4f exceeds %.4f" !d bound

let test_normal_ks () =
  (* Same for the normal sampler against Phi, using the logistic-like
     approximation of the error function. *)
  let phi x =
    0.5 *. (1. +. Float.erf (x /. Float.sqrt 2.))
  in
  let n = 5000 in
  let xs = Array.map Prng.normal (Prng.split_many (Prng.key 98) n) in
  Array.sort compare xs;
  let d = ref 0. in
  Array.iteri
    (fun i x ->
      let u = phi x in
      let ecdf_hi = float_of_int (i + 1) /. float_of_int n in
      let ecdf_lo = float_of_int i /. float_of_int n in
      d := Float.max !d (Float.max (Float.abs (ecdf_hi -. u)) (Float.abs (u -. ecdf_lo))))
    xs;
  let bound = 1.95 /. Float.sqrt (float_of_int n) in
  if !d > bound then
    Alcotest.failf "normal KS statistic %.4f exceeds %.4f" !d bound

let test_permutation () =
  let p = Prng.permutation k0 10 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 10 (fun i -> i))
    sorted

let test_tensor_draws () =
  let t = Prng.normal_tensor k0 [| 4; 5 |] in
  Alcotest.(check (array int)) "shape" [| 4; 5 |] (Tensor.shape t);
  let u = Prng.uniform_tensor k0 [| 100 |] in
  Alcotest.(check bool) "uniform bounds" true
    (Tensor.min_elt u >= 0. && Tensor.max_elt u < 1.);
  let mean_t = Tensor.full [| 3 |] 2. in
  let std_t = Tensor.full [| 3 |] 0.001 in
  let x = Prng.normal_tensor_mean_std k0 mean_t std_t in
  Alcotest.(check bool) "mean_std close to mean" true
    (Tensor.max_elt (Tensor.map Float.abs (Tensor.sub x mean_t)) < 0.01)

let prop_uniform_bounds =
  QCheck.Test.make ~name:"uniform always in [0,1)" ~count:500
    QCheck.small_int (fun seed ->
      let u = Prng.uniform (Prng.key seed) in
      u >= 0. && u < 1.)

let prop_split_deterministic =
  QCheck.Test.make ~name:"split is deterministic" ~count:200 QCheck.small_int
    (fun seed ->
      let k = Prng.key seed in
      let a1, b1 = Prng.split k in
      let a2, b2 = Prng.split k in
      Prng.uniform a1 = Prng.uniform a2 && Prng.uniform b1 = Prng.uniform b2)

let prop_beta_in_unit =
  QCheck.Test.make ~name:"beta in (0,1)" ~count:200
    QCheck.(pair small_int (pair (float_range 0.2 5.) (float_range 0.2 5.)))
    (fun (seed, (a, b)) ->
      let x = Prng.beta (Prng.key seed) a b in
      x >= 0. && x <= 1.)

(* The vector-draw contract: slot [i] is the draw of child [i] of
   [split_many k n], compared at the Int64 level. *)
let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let gen_key = QCheck.map Prng.key QCheck.int

let prop_tensor_draws_are_key_array_draws =
  QCheck.Test.make ~name:"uniform/normal_tensor = Array.map over split_many"
    ~count:200
    QCheck.(pair gen_key (int_range 0 300))
    (fun (k, n) ->
      let ks = Prng.split_many k n in
      let u = Prng.uniform_tensor k [| n |] and z = Prng.normal_tensor k [| n |] in
      Tensor.shape u = [| n |]
      && bits_equal (Tensor.to_array u) (Array.map Prng.uniform ks)
      && bits_equal (Tensor.to_array z) (Array.map Prng.normal ks)
      (* Row-major over any shape of the same size. *)
      && bits_equal
           (Tensor.to_array (Prng.normal_tensor k [| 1; n; 1 |]))
           (Tensor.to_array z))

let prop_into_writes_only_its_slots =
  QCheck.Test.make ~name:"uniform/normal_into touch exactly [off, off+n)"
    ~count:200
    QCheck.(quad gen_key (int_range 0 300) (int_range 0 40) (int_range 0 40))
    (fun (k, n, off, tail) ->
      let ks = Prng.split_many k n in
      let sentinel = -7.25 in
      List.for_all
        (fun (into, draw) ->
          let out = Array.make (off + n + tail) sentinel in
          into k out off n;
          bits_equal (Array.sub out off n) (Array.map draw ks)
          && Array.for_all (( = ) sentinel) (Array.sub out 0 off)
          && Array.for_all (( = ) sentinel) (Array.sub out (off + n) tail))
        [ (Prng.uniform_into, Prng.uniform); (Prng.normal_into, Prng.normal) ])

let test_into_bounds () =
  let out = Array.make 8 0. in
  List.iter
    (fun (name, off, n) ->
      List.iter
        (fun into ->
          match into k0 out off n with
          | () -> Alcotest.failf "%s accepted" name
          | exception Invalid_argument _ -> ())
        [ Prng.uniform_into; Prng.normal_into ])
    [ ("negative n", 0, -1); ("negative off", -1, 2); ("past the end", 5, 4) ];
  Prng.uniform_into k0 out 8 0;
  Alcotest.(check bool) "empty range at the end is fine" true
    (Array.for_all (( = ) 0.) out)

let test_input_validation () =
  let rejects name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "uniform_range inverted" (fun () -> Prng.uniform_range k0 1. 0.);
  rejects "uniform_range nan lo" (fun () ->
      Prng.uniform_range k0 Float.nan 1.);
  rejects "uniform_range inf hi" (fun () ->
      Prng.uniform_range k0 0. Float.infinity);
  rejects "bernoulli nan p" (fun () -> Prng.bernoulli k0 Float.nan);
  rejects "gamma zero shape" (fun () -> Prng.gamma k0 0.);
  rejects "gamma negative shape" (fun () -> Prng.gamma k0 (-1.));
  rejects "gamma nan shape" (fun () -> Prng.gamma k0 Float.nan);
  rejects "weibull zero shape" (fun () -> Prng.weibull k0 ~shape:0. ~scale:1.);
  rejects "weibull negative scale" (fun () ->
      Prng.weibull k0 ~shape:2. ~scale:(-1.));
  rejects "poisson nan rate" (fun () -> Prng.poisson k0 Float.nan);
  rejects "poisson negative rate" (fun () -> Prng.poisson k0 (-2.));
  rejects "categorical_logits empty" (fun () ->
      Prng.categorical_logits k0 [||]);
  rejects "categorical_logits nan" (fun () ->
      Prng.categorical_logits k0 [| 0.; Float.nan |]);
  rejects "categorical_logits all -inf" (fun () ->
      Prng.categorical_logits k0
        [| Float.neg_infinity; Float.neg_infinity |]);
  (* Edge cases that stay valid. *)
  Alcotest.(check int) "poisson rate 0" 0 (Prng.poisson k0 0.);
  Alcotest.(check (float 0.)) "uniform_range point" 1.5
    (Prng.uniform_range k0 1.5 1.5);
  Alcotest.(check int) "categorical_logits skips -inf" 1
    (Prng.categorical_logits k0 [| Float.neg_infinity; 0. |])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_uniform_bounds; prop_split_deterministic; prop_beta_in_unit;
      prop_tensor_draws_are_key_array_draws; prop_into_writes_only_its_slots ]

let suites =
  [ ( "prng",
      [ Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "split_many distinct" `Quick
          test_split_many_distinct;
        Alcotest.test_case "fold_in" `Quick test_fold_in;
        Alcotest.test_case "uniform bounds/moments" `Quick
          test_uniform_range_bounds;
        Alcotest.test_case "normal moments" `Slow test_normal_moments;
        Alcotest.test_case "normal mean/std" `Slow test_normal_mean_std;
        Alcotest.test_case "exponential moments" `Slow
          test_exponential_moments;
        Alcotest.test_case "bernoulli" `Slow test_bernoulli;
        Alcotest.test_case "categorical frequencies" `Slow
          test_categorical_frequencies;
        Alcotest.test_case "categorical logits" `Slow test_categorical_logits;
        Alcotest.test_case "categorical invalid" `Quick
          test_categorical_invalid;
        Alcotest.test_case "gamma moments" `Slow test_gamma_moments;
        Alcotest.test_case "gamma small shape" `Slow test_gamma_small_shape;
        Alcotest.test_case "beta moments" `Slow test_beta_moments;
        Alcotest.test_case "poisson moments" `Slow test_poisson_moments;
        Alcotest.test_case "poisson large rate" `Slow test_poisson_large_rate;
        Alcotest.test_case "weibull moments" `Slow test_weibull_moments;
        Alcotest.test_case "maxwell moments" `Slow test_maxwell_moments;
        Alcotest.test_case "uniform KS" `Slow test_uniform_ks;
        Alcotest.test_case "normal KS" `Slow test_normal_ks;
        Alcotest.test_case "permutation" `Quick test_permutation;
        Alcotest.test_case "tensor draws" `Quick test_tensor_draws;
        Alcotest.test_case "input validation" `Quick test_input_validation;
        Alcotest.test_case "vector draw bounds" `Quick test_into_bounds ]
      @ qcheck_cases ) ]

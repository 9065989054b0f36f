(* SplitMix64 over a pure key. A key is a 64-bit state; [split] and
   [fold_in] derive children by mixing; raw draws mix the state once
   through the output function. *)

type key = int64

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let key seed = mix64 (Int64.add (Int64.of_int seed) golden)

let split k =
  let a = mix64 (Int64.add k golden) in
  let b = mix64 (Int64.add k (Int64.mul golden 2L)) in
  (a, b)

(* Child [i] of [split_many k n]; the draw kernels below inline it so
   the key never leaves a register. *)
let[@inline] child k i =
  mix64 (Int64.add k (Int64.mul golden (Int64.of_int (i + 1))))

let split_many k n = Array.init n (fun i -> child k i)

let fold_in k i =
  mix64 (Int64.add (Int64.logxor k (mix64 (Int64.of_int i))) golden)

(* Raw draws *)

let[@inline] to_unit_float bits =
  (* Use the top 53 bits to build a float in [0, 1). *)
  let mant = Int64.shift_right_logical bits 11 in
  Int64.to_float mant *. (1. /. 9007199254740992.)

let[@inline] uniform k = to_unit_float (mix64 (Int64.add k 1L))

let uniform_range k lo hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg
      (Printf.sprintf "Prng.uniform_range: non-finite bounds [%g, %g]" lo hi);
  if lo > hi then
    invalid_arg
      (Printf.sprintf "Prng.uniform_range: empty range [%g, %g]" lo hi);
  lo +. ((hi -. lo) *. uniform k)

(* Box-Muller on the two children of [split k]. The clamp is
   [Float.max u 1e-300] for a [u] in [\[0, 1)], spelled out so the
   inlined body stays unboxed. *)
let[@inline] normal k =
  let u1 = uniform (mix64 (Int64.add k golden)) in
  let u1 = if u1 < 1e-300 then 1e-300 else u1 in
  let u2 = uniform (mix64 (Int64.add k (Int64.mul golden 2L))) in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let normal_mean_std k mu sigma = mu +. (sigma *. normal k)
let exponential k = -.Float.log (Float.max (uniform k) 1e-300)

let bernoulli k p =
  if Float.is_nan p then invalid_arg "Prng.bernoulli: NaN probability";
  uniform k < p

let categorical k weights =
  if Array.length weights = 0 then
    invalid_arg "Prng.categorical: empty weight vector";
  Array.iteri
    (fun i w ->
      if Float.is_nan w then
        invalid_arg (Printf.sprintf "Prng.categorical: NaN weight at index %d" i);
      if w < 0. then
        invalid_arg
          (Printf.sprintf "Prng.categorical: negative weight %g at index %d" w i))
    weights;
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then
    invalid_arg "Prng.categorical: nonpositive total weight";
  let u = uniform k *. total in
  let acc = ref 0. in
  let chosen = ref (Array.length weights - 1) in
  (try
     Array.iteri
       (fun i w ->
         acc := !acc +. w;
         if u < !acc then begin
           chosen := i;
           raise Exit
         end)
       weights
   with Exit -> ());
  !chosen

let categorical_logits k logits =
  if Array.length logits = 0 then
    invalid_arg "Prng.categorical_logits: empty logit vector";
  Array.iteri
    (fun i l ->
      if Float.is_nan l then
        invalid_arg
          (Printf.sprintf "Prng.categorical_logits: NaN logit at index %d" i))
    logits;
  if Array.for_all (fun l -> l = Float.neg_infinity) logits then
    invalid_arg "Prng.categorical_logits: all logits are -inf";
  let best = ref 0 and best_v = ref Float.neg_infinity in
  Array.iteri
    (fun i l ->
      let g = -.Float.log (Float.max (uniform (fold_in k i)) 1e-300) in
      let v = l -. Float.log g in
      if v > !best_v then begin
        best := i;
        best_v := v
      end)
    logits;
  !best

(* Marsaglia-Tsang, boosted for shape < 1. *)
let rec gamma k shape =
  if not (shape > 0. && Float.is_finite shape) then
    invalid_arg (Printf.sprintf "Prng.gamma: shape %g not positive finite" shape);
  if shape < 1. then begin
    let k1, k2 = split k in
    let u = Float.max (uniform k1) 1e-300 in
    gamma k2 (shape +. 1.) *. Float.pow u (1. /. shape)
  end
  else begin
    let d = shape -. (1. /. 3.) in
    let c = 1. /. Float.sqrt (9. *. d) in
    let rec try_at k =
      let k1, k2, k3 =
        let a, rest = split k in
        let b, c' = split rest in
        (a, b, c')
      in
      let x = normal k1 in
      let v = 1. +. (c *. x) in
      if v <= 0. then try_at k3
      else begin
        let v3 = v *. v *. v in
        let u = Float.max (uniform k2) 1e-300 in
        let x2 = x *. x in
        if
          u < 1. -. (0.0331 *. x2 *. x2)
          || Float.log u < (0.5 *. x2) +. (d *. (1. -. v3 +. Float.log v3))
        then d *. v3
        else try_at k3
      end
    in
    try_at k
  end

let beta k a b =
  let k1, k2 = split k in
  let x = gamma k1 a and y = gamma k2 b in
  x /. (x +. y)

let poisson k rate =
  if Float.is_nan rate then invalid_arg "Prng.poisson: NaN rate";
  if rate < 0. then
    invalid_arg (Printf.sprintf "Prng.poisson: negative rate %g" rate);
  if rate <= 0. then 0
  else if rate < 30. then begin
    (* Knuth's multiplication method. *)
    let limit = Float.exp (-.rate) in
    let rec loop k n p =
      let k1, k2 = split k in
      let p = p *. uniform k1 in
      if p <= limit then n else loop k2 (n + 1) p
    in
    loop k 0 1.
  end
  else begin
    (* Normal approximation with continuity correction, clamped at 0;
       adequate for the large-rate draws used in tests. *)
    let x = normal k in
    Stdlib.max 0 (int_of_float (Float.round (rate +. (Float.sqrt rate *. x))))
  end

let weibull k ~shape ~scale =
  if not (shape > 0. && Float.is_finite shape) then
    invalid_arg
      (Printf.sprintf "Prng.weibull: shape %g not positive finite" shape);
  if not (scale > 0. && Float.is_finite scale) then
    invalid_arg
      (Printf.sprintf "Prng.weibull: scale %g not positive finite" scale);
  let u = Float.max (uniform k) 1e-300 in
  scale *. Float.pow (-.Float.log u) (1. /. shape)

(* If W ~ Weibull(shape=2, scale=sqrt 2) and S = +/-1 uniformly, then
   |X| with X ~ Maxwell has density x^2 e^{-x^2/2} * sqrt(2/pi). Sample
   via the Gamma(3/2, 2) representation: X = sqrt(2 G), G ~ Gamma(3/2). *)
let maxwell k = Float.sqrt (2. *. gamma k 1.5)

let permutation k n =
  let a = Array.init n (fun i -> i) in
  let kr = ref k in
  for i = n - 1 downto 1 do
    let k1, k2 = split !kr in
    kr := k2;
    let j = int_of_float (uniform k1 *. float_of_int (i + 1)) in
    let j = Stdlib.min j i in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(* Vector draws: slot [off + i] gets the draw of [child k i], so a
   vector draw is [Array.map uniform (split_many k n)] without the key
   array. *)

let check_into name out off n =
  if n < 0 || off < 0 || off > Array.length out - n then
    invalid_arg
      (Printf.sprintf "Prng.%s: slots [%d, %d+%d) outside an array of %d"
         name off off n (Array.length out))

let uniform_into k out off n =
  check_into "uniform_into" out off n;
  for i = 0 to n - 1 do
    Array.unsafe_set out (off + i) (uniform (child k i))
  done

let normal_into k out off n =
  check_into "normal_into" out off n;
  for i = 0 to n - 1 do
    Array.unsafe_set out (off + i) (normal (child k i))
  done

(* Tensor-valued draws *)

let tensor_draw into k shape =
  let out = Array.make (Array.fold_left ( * ) 1 shape) 0. in
  into k out 0 (Array.length out);
  Tensor.of_array shape out

let uniform_tensor k shape = tensor_draw uniform_into k shape
let normal_tensor k shape = tensor_draw normal_into k shape

let normal_tensor_mean_std k mean std =
  let eps = normal_tensor k (Tensor.shape mean) in
  Tensor.add mean (Tensor.mul std eps)

type strategy =
  | Reparam
  | Reinforce
  | Reinforce_baseline of Baseline.t
  | Enum
  | Mvd

let strategy_name = function
  | Reparam -> "REPARAM"
  | Reinforce -> "REINFORCE"
  | Reinforce_baseline _ -> "REINFORCE+baseline"
  | Enum -> "ENUM"
  | Mvd -> "MVD"

type 'a coupling = { param : Ad.t; weight : float; plus : 'a; minus : 'a }

type static_support =
  | Real_interval of { lo : float; hi : float }
  | Finite_support
  | Int_range of { lo : int; hi : int option }
  | Unit_hypercube
  | Unknown_support

type meta = { continuous : bool; static_support : static_support }

let unknown_meta = { continuous = false; static_support = Unknown_support }

let real_line =
  { continuous = true;
    static_support =
      Real_interval { lo = Float.neg_infinity; hi = Float.infinity } }

let real_interval lo hi =
  { continuous = true; static_support = Real_interval { lo; hi } }

let nonneg_reals = real_interval 0. Float.infinity
let finite_meta = { continuous = false; static_support = Finite_support }

let nonneg_ints =
  { continuous = false; static_support = Int_range { lo = 0; hi = None } }

let int_range lo hi =
  { continuous = false; static_support = Int_range { lo; hi = Some hi } }

type 'a batched = {
  sample_n : Prng.key -> int -> 'a;
  log_density_n : 'a -> Ad.t;
  reparam_n : (Prng.key -> int -> 'a) option;
  stack : 'a array -> 'a;
  unstack : int -> 'a -> 'a array;
}

exception Not_batchable of string

type 'a t = {
  name : string;
  strategy : strategy;
  sample : Prng.key -> 'a;
  log_density : 'a -> Ad.t;
  default : 'a;
  inject : 'a -> Value.t;
  project : Value.t -> 'a option;
  support : 'a list option;
  reparam : (Prng.key -> 'a) option;
  mvd : (Prng.key -> 'a * 'a coupling list) option;
  meta : meta;
  batched : 'a batched option;
}

let make ~name ~strategy ~sample ~log_density ~default ~inject ~project
    ?support ?reparam ?mvd ?(meta = unknown_meta) ?batched () =
  { name; strategy; sample; log_density; default; inject; project; support;
    reparam; mvd; meta; batched }

(* Injection helpers per carrier type. *)

let inject_real a = Value.Real a
let project_real = function Value.Real a -> Some a | _ -> None
let inject_bool b = Value.Bool b
let project_bool = function Value.Bool b -> Some b | _ -> None
let inject_int i = Value.Int i
let project_int = function Value.Int i -> Some i | _ -> None

let primal a = Tensor.to_scalar (Ad.value a)
let log_2pi = Float.log (2. *. Float.pi)

(* A [default] stands in for a value a trace lacks, on a path whose
   weight is already -inf; nothing reads its gradient. Every
   construction of a primitive makes one, so it is built untaped: no
   id, no tape accounting, and not shared between tapes. *)
let default_scalar x = Ad.primal (fun () -> Ad.scalar x)
let default_zeros shape = Ad.primal (fun () -> Ad.const (Tensor.zeros shape))

(* Clamp a probability-valued AD node away from 0/1 before taking logs.
   The clamp is a detached additive correction, so gradients are those of
   the unclamped value. *)
let log_stable a =
  let eps = 1e-12 in
  let v = Ad.value a in
  let safe = Tensor.clip ~min:eps ~max:Float.infinity v in
  Ad.log (Ad.add a (Ad.const (Tensor.sub safe v)))

(* ------------------------------------------------------------------ *)
(* Batched execution scaffolding.

   A batched payload runs [n] i.i.d. instances of a primitive as ONE
   rank-lifted value whose leading axis is the instance axis. Row [i]
   always reuses the scalar code path under key [Prng.fold_in key i],
   so a batched draw is bit-for-bit the stack of the sequential draws
   and seeded scalar behavior is untouched. [log_density_n] reduces
   every axis except the instance axis, yielding the per-instance
   log-density vector. *)

(* Sum out all trailing axes, leaving the instance axis: [n; ...] -> [n]. *)
let reduce_tail v =
  let rec go v =
    if Array.length (Ad.shape v) <= 1 then v else go (Ad.sum_axis 1 v)
  in
  go v

let scalar_rows key n draw =
  Ad.const
    (Tensor.of_array [| n |]
       (Array.init n (fun i -> draw (Prng.fold_in key i))))

let stack_real rows = Ad.stack0 (Array.to_list rows)
let unstack_real n x = Array.init n (fun i -> Ad.slice0 x i)

(* Batched payload for scalar-real primitives: [sample_n] literally
   stacks [n] calls of the scalar sampler. *)
let batched_scalar ?reparam_n ~sample ~log_density_n () =
  { sample_n = (fun key n -> scalar_rows key n (fun k -> primal (sample k)));
    log_density_n;
    reparam_n;
    stack = stack_real;
    unstack = unstack_real }

(* Instance-axis dispatch for tensor-carrier primitives: a parameter is
   data-indexed (one row per instance) when its leading dimension equals
   the instance count and it has rank >= 2; otherwise the whole
   parameter is shared by every instance (a plate lift). *)
let data_indexed v n =
  let s = Tensor.shape v in
  Array.length s >= 2 && s.(0) = n

(* Shape of one instance's slice of [v] (see [data_indexed]). *)
let row_shape v n =
  let s = Tensor.shape v in
  if data_indexed v n then Array.sub s 1 (Array.length s - 1) else s

(* [n] rows of [row] draws written into one [n x row] buffer, row [i]
   with [into] under [Prng.fold_in key i] — the stack of the per-row
   tensor draws, without building the rows. [finish out off m] may
   rewrite the [m] slots of a row in place once it is drawn. *)
let draw_rows ?(finish = fun _ _ _ -> ()) into key n row =
  let m = Array.fold_left ( * ) 1 row in
  let out = Array.make (n * m) 0. in
  for i = 0 to n - 1 do
    into (Prng.fold_in key i) out (i * m) m;
    finish out (i * m) m
  done;
  Tensor.of_array (Array.append [| n |] row) out

(* Normal *)

let log_density_normal ~mu ~sigma x =
  let open Ad.O in
  let z = (x - mu) / sigma in
  Ad.scale (-0.5) (z * z) - Ad.log sigma - Ad.scalar (0.5 *. log_2pi)

let normal_base ~strategy ?support ?reparam ?mvd mu sigma =
  let sample key =
    Ad.scalar (Prng.normal_mean_std key (primal mu) (primal sigma))
  in
  make ~name:"normal" ~strategy ~sample
    ~log_density:(log_density_normal ~mu ~sigma)
    ~default:(default_scalar 0.) ~inject:inject_real ~project:project_real
    ?support ?reparam ?mvd ~meta:real_line
    ~batched:
      (batched_scalar ~sample
         ~log_density_n:(log_density_normal ~mu ~sigma)
         ~reparam_n:(fun key n ->
           let eps = scalar_rows key n Prng.normal in
           Ad.O.(mu + (sigma * eps)))
         ())
    ()

let normal_reparam mu sigma =
  normal_base ~strategy:Reparam
    ~reparam:(fun key ->
      let eps = Ad.scalar (Prng.normal key) in
      Ad.O.(mu + (sigma * eps)))
    mu sigma

let normal_reinforce mu sigma = normal_base ~strategy:Reinforce mu sigma

let normal_mvd mu sigma =
  normal_base ~strategy:Mvd
    ~mvd:(fun key ->
      let k1, rest = Prng.split key in
      let k2, rest = Prng.split rest in
      let k3, rest = Prng.split rest in
      let k4, k5 = Prng.split rest in
      let mu_p = primal mu and sigma_p = primal sigma in
      let x = Ad.scalar (Prng.normal_mean_std k1 mu_p sigma_p) in
      (* d/dmu: Weibull(scale sqrt 2, shape 2) coupling, constant
         1 / (sigma sqrt (2 pi)). *)
      let w = Prng.weibull k2 ~shape:2. ~scale:(Float.sqrt 2.) in
      let mu_coupling =
        { param = mu;
          weight = 1. /. (sigma_p *. Float.sqrt (2. *. Float.pi));
          plus = Ad.scalar (mu_p +. (sigma_p *. w));
          minus = Ad.scalar (mu_p -. (sigma_p *. w)) }
      in
      (* d/dsigma: double-sided Maxwell minus normal, constant 1/sigma. *)
      let m = Prng.maxwell k3 in
      let s = if Prng.bernoulli k4 0.5 then 1. else -1. in
      let eps = Prng.normal k5 in
      let sigma_coupling =
        { param = sigma;
          weight = 1. /. sigma_p;
          plus = Ad.scalar (mu_p +. (sigma_p *. m *. s));
          minus = Ad.scalar (mu_p +. (sigma_p *. eps)) }
      in
      (x, [ mu_coupling; sigma_coupling ]))
    mu sigma

(* Uniform: rigid bounds, rigid value. *)

let uniform lo hi =
  if hi <= lo then invalid_arg "Dist.uniform: hi <= lo";
  let logd = -.Float.log (hi -. lo) in
  let sample key = Ad.scalar (Prng.uniform_range key lo hi) in
  make ~name:"uniform" ~strategy:Reinforce ~sample
    ~log_density:(fun x ->
      let v = primal x in
      if v >= lo && v <= hi then Ad.scalar logd
      else Ad.scalar Float.neg_infinity)
    ~default:(default_scalar lo) ~inject:inject_real ~project:project_real
    ~meta:(real_interval lo hi)
    ~batched:
      (batched_scalar ~sample
         ~log_density_n:(fun x ->
           Ad.const
             (Tensor.map
                (fun v ->
                  if v >= lo && v <= hi then logd else Float.neg_infinity)
                (Ad.value x)))
         ())
    ()

(* Beta / Gamma *)

let beta_reinforce a b =
  let sample key = Ad.scalar (Prng.beta key (primal a) (primal b)) in
  let log_density_n x =
    let open Ad.O in
    let xc =
      Ad.const
        (Tensor.map
           (fun v -> Float.min (Float.max v 1e-12) (1. -. 1e-12))
           (Ad.value x))
    in
    ((a - Ad.scalar 1.) * Ad.log xc)
    + ((b - Ad.scalar 1.) * Ad.log (Ad.scalar 1. - xc))
    - Special.log_beta a b
  in
  make ~name:"beta" ~strategy:Reinforce ~sample
    ~log_density:(fun x ->
      let open Ad.O in
      let xv = Float.min (Float.max (primal x) 1e-12) (1. -. 1e-12) in
      let x = Ad.scalar xv in
      ((a - Ad.scalar 1.) * Ad.log x)
      + ((b - Ad.scalar 1.) * Ad.log (Ad.scalar 1. - x))
      - Special.log_beta a b)
    ~default:(default_scalar 0.5) ~inject:inject_real ~project:project_real
    ~meta:(real_interval 0. 1.)
    ~batched:(batched_scalar ~sample ~log_density_n ())
    ()

let gamma_reinforce shape =
  let sample key = Ad.scalar (Prng.gamma key (primal shape)) in
  let log_density_n x =
    let open Ad.O in
    let xc = Ad.const (Tensor.map (fun v -> Float.max v 1e-12) (Ad.value x)) in
    ((shape - Ad.scalar 1.) * Ad.log xc) - xc - Special.lgamma_ad shape
  in
  make ~name:"gamma" ~strategy:Reinforce ~sample
    ~log_density:(fun x ->
      let open Ad.O in
      let xv = Float.max (primal x) 1e-12 in
      let x = Ad.scalar xv in
      ((shape - Ad.scalar 1.) * Ad.log x) - x - Special.lgamma_ad shape)
    ~default:(default_scalar 1.) ~inject:inject_real ~project:project_real
    ~meta:nonneg_reals
    ~batched:(batched_scalar ~sample ~log_density_n ())
    ()

(* Location-scale families with inverse-CDF reparameterizations. *)

let laplace_reparam loc scale =
  let sample key =
    let u = Prng.uniform key -. 0.5 in
    let m = if u < 0. then Float.log (1. +. (2. *. u)) else -.Float.log (1. -. (2. *. u)) in
    Ad.scalar (primal loc +. (primal scale *. m))
  in
  let log_density x =
    let open Ad.O in
    let z = (x - loc) / scale in
    (* |z| = z * sign(z) with the sign detached: correct value and
       subgradient away from the kink at the location (the usual
       Laplace caveat). This works elementwise, so it doubles as the
       per-instance batched density (after tail reduction there is no
       tail: scalar instances are already the instance axis). *)
    let sign = Ad.const (Tensor.map (fun v -> if v >= 0. then 1. else -1.) (Ad.value z)) in
    let abs_z = Ad.mul z sign in
    Ad.neg abs_z - Ad.log (Ad.scale 2. scale)
  in
  let laplace_m u =
    if u < 0. then Float.log (1. +. (2. *. u)) else -.Float.log (1. -. (2. *. u))
  in
  make ~name:"laplace" ~strategy:Reparam ~sample ~log_density
    ~default:(default_scalar 0.) ~inject:inject_real ~project:project_real
    ~reparam:(fun key ->
      let u = Prng.uniform key -. 0.5 in
      Ad.O.(loc + (scale * Ad.scalar (laplace_m u))))
    ~meta:real_line
    ~batched:
      (batched_scalar ~sample ~log_density_n:log_density
         ~reparam_n:(fun key n ->
           let m = scalar_rows key n (fun k -> laplace_m (Prng.uniform k -. 0.5)) in
           Ad.O.(loc + (scale * m)))
         ())
    ()

let logistic_reparam loc scale =
  let logit u = Float.log (u /. (1. -. u)) in
  let draw_logit k =
    logit (Float.min (Float.max (Prng.uniform k) 1e-12) (1. -. 1e-12))
  in
  let sample key = Ad.scalar (primal loc +. (primal scale *. draw_logit key)) in
  let log_density x =
    let open Ad.O in
    let z = (x - loc) / scale in
    Ad.neg z - Ad.log scale - Ad.scale 2. (Ad.softplus (Ad.neg z))
  in
  make ~name:"logistic" ~strategy:Reparam ~sample ~log_density
    ~default:(default_scalar 0.) ~inject:inject_real ~project:project_real
    ~reparam:(fun key -> Ad.O.(loc + (scale * Ad.scalar (draw_logit key))))
    ~meta:real_line
    ~batched:
      (batched_scalar ~sample ~log_density_n:log_density
         ~reparam_n:(fun key n ->
           Ad.O.(loc + (scale * scalar_rows key n draw_logit)))
         ())
    ()

let lognormal_reparam mu sigma =
  let sample key =
    Ad.scalar (Float.exp (Prng.normal_mean_std key (primal mu) (primal sigma)))
  in
  let log_density_n x =
    let logx =
      Ad.const
        (Tensor.map (fun v -> Float.log (Float.max v 1e-300)) (Ad.value x))
    in
    Ad.O.(log_density_normal ~mu ~sigma logx - logx)
  in
  make ~name:"lognormal" ~strategy:Reparam ~sample
    ~log_density:(fun x ->
      let xv = Float.max (primal x) 1e-300 in
      let logx = Ad.scalar (Float.log xv) in
      Ad.O.(log_density_normal ~mu ~sigma logx - Ad.scalar (Float.log xv)))
    ~default:(default_scalar 1.) ~inject:inject_real ~project:project_real
    ~reparam:(fun key ->
      let eps = Ad.scalar (Prng.normal key) in
      Ad.exp Ad.O.(mu + (sigma * eps)))
    ~meta:nonneg_reals
    ~batched:
      (batched_scalar ~sample ~log_density_n
         ~reparam_n:(fun key n ->
           let eps = scalar_rows key n Prng.normal in
           Ad.exp Ad.O.(mu + (sigma * eps)))
         ())
    ()

let exponential_reparam rate =
  let sample key = Ad.scalar (Prng.exponential key /. primal rate) in
  let log_density x = Ad.O.(Ad.log rate - (rate * x)) in
  make ~name:"exponential" ~strategy:Reparam ~sample ~log_density
    ~default:(default_scalar 1.) ~inject:inject_real ~project:project_real
    ~reparam:(fun key -> Ad.div (Ad.scalar (Prng.exponential key)) rate)
    ~meta:nonneg_reals
    ~batched:
      (batched_scalar ~sample ~log_density_n:log_density
         ~reparam_n:(fun key n ->
           Ad.div (scalar_rows key n Prng.exponential) rate)
         ())
    ()

let student_t_reinforce df =
  let sample key =
    (* t = Z / sqrt(V / df) with V ~ chi^2(df) = Gamma(df/2, 2). *)
    let k1, k2 = Prng.split key in
    let z = Prng.normal k1 in
    let v = 2. *. Prng.gamma k2 (primal df /. 2.) in
    Ad.scalar (z /. Float.sqrt (v /. primal df))
  in
  let log_density_n x =
    let open Ad.O in
    let x2 = Ad.const (Tensor.map (fun v -> v *. v) (Ad.value x)) in
    let half = Ad.scale 0.5 df in
    let half1 = Ad.add_scalar 0.5 half in
    Special.lgamma_ad half1 - Special.lgamma_ad half
    - Ad.scale 0.5 (Ad.log (Ad.scale Float.pi df))
    - (half1 * Ad.log (Ad.add_scalar 1. (x2 * Ad.pow_scalar df (-1.))))
  in
  make ~name:"student_t" ~strategy:Reinforce ~sample
    ~log_density:(fun x ->
      let open Ad.O in
      let xv = primal x in
      let half = Ad.scale 0.5 df in
      let half1 = Ad.add_scalar 0.5 half in
      Special.lgamma_ad half1 - Special.lgamma_ad half
      - Ad.scale 0.5 (Ad.log (Ad.scale Float.pi df))
      - (half1
        * Ad.log (Ad.add_scalar 1. (Ad.scale (xv *. xv) (Ad.pow_scalar df (-1.)))))
      )
    ~default:(default_scalar 0.) ~inject:inject_real ~project:project_real
    ~meta:real_line
    ~batched:(batched_scalar ~sample ~log_density_n ())
    ()

let scaled_beta_reinforce ~lo ~hi a b =
  if hi <= lo then invalid_arg "Dist.scaled_beta_reinforce: hi <= lo";
  let width = hi -. lo in
  let unscale x = (primal x -. lo) /. width in
  let sample key =
    Ad.scalar (lo +. (width *. Prng.beta key (primal a) (primal b)))
  in
  let log_density_n x =
    let open Ad.O in
    let u =
      Ad.const
        (Tensor.map
           (fun v ->
             Float.min (Float.max ((v -. lo) /. width) 1e-12) (1. -. 1e-12))
           (Ad.value x))
    in
    ((a - Ad.scalar 1.) * Ad.log u)
    + ((b - Ad.scalar 1.) * Ad.log (Ad.scalar 1. - u))
    - Special.log_beta a b
    - Ad.scalar (Float.log width)
  in
  make ~name:"scaled_beta" ~strategy:Reinforce ~sample
    ~log_density:(fun x ->
      let open Ad.O in
      let u = Float.min (Float.max (unscale x) 1e-12) (1. -. 1e-12) in
      let u = Ad.scalar u in
      ((a - Ad.scalar 1.) * Ad.log u)
      + ((b - Ad.scalar 1.) * Ad.log (Ad.scalar 1. - u))
      - Special.log_beta a b
      - Ad.scalar (Float.log width))
    ~default:(default_scalar ((lo +. hi) /. 2.)) ~inject:inject_real
    ~project:project_real ~meta:(real_interval lo hi)
    ~batched:(batched_scalar ~sample ~log_density_n ())
    ()

(* Flip *)

let log_density_flip p b =
  if b then log_stable p else log_stable Ad.O.(Ad.scalar 1. - p)

let flip_base ~strategy ?mvd p =
  make ~name:"flip" ~strategy
    ~sample:(fun key -> Prng.bernoulli key (primal p))
    ~log_density:(log_density_flip p) ~default:false ~inject:inject_bool
    ~project:project_bool ~support:[ true; false ] ?mvd ~meta:finite_meta ()

let flip_enum p = flip_base ~strategy:Enum p
let flip_reinforce p = flip_base ~strategy:Reinforce p
let flip_reinforce_bl cell p = flip_base ~strategy:(Reinforce_baseline cell) p

let flip_mvd p =
  flip_base ~strategy:Mvd
    ~mvd:(fun key ->
      let b = Prng.bernoulli key (primal p) in
      (b, [ { param = p; weight = 1.; plus = true; minus = false } ]))
    p

(* Categorical *)

let categorical_base ~name ~strategy ~probs_of ~log_density_of param =
  let n = Tensor.size (Ad.value param) in
  make ~name ~strategy
    ~sample:(fun key -> Prng.categorical key (Tensor.to_array (probs_of param)))
    ~log_density:(fun i ->
      if i < 0 || i >= n then Ad.scalar Float.neg_infinity
      else log_density_of param i)
    ~default:0 ~inject:inject_int ~project:project_int
    ~support:(List.init n (fun i -> i))
    ~meta:finite_meta ()

let categorical_with ~strategy probs =
  categorical_base ~name:"categorical" ~strategy
    ~probs_of:(fun p -> Ad.value p)
    ~log_density_of:(fun p i -> log_stable (Ad.get p [| i |]))
    probs

let categorical_enum probs = categorical_with ~strategy:Enum probs
let categorical_reinforce probs = categorical_with ~strategy:Reinforce probs

let categorical_reinforce_bl cell probs =
  categorical_with ~strategy:(Reinforce_baseline cell) probs

let categorical_logits_with ~strategy logits =
  categorical_base ~name:"categorical_logits" ~strategy
    ~probs_of:(fun l -> Tensor.softmax (Ad.value l))
    ~log_density_of:(fun l i -> Ad.get (Ad.log_softmax l) [| i |])
    logits

let categorical_logits_enum l = categorical_logits_with ~strategy:Enum l

let categorical_logits_reinforce l =
  categorical_logits_with ~strategy:Reinforce l

let categorical_logits_reinforce_bl cell l =
  categorical_logits_with ~strategy:(Reinforce_baseline cell) l

let categorical_logits_mvd logits =
  let n = Tensor.size (Ad.value logits) in
  let base = categorical_logits_with ~strategy:Mvd logits in
  let mvd key =
    let k1, k2 = Prng.split key in
    let probs = Tensor.softmax (Ad.value logits) in
    let weights = Tensor.to_array probs in
    let x = Prng.categorical k1 weights in
    let j = Prng.categorical k2 weights in
    let couplings =
      List.init n (fun i ->
          { param = Ad.get logits [| i |]; weight = weights.(i); plus = i;
            minus = j })
    in
    (x, couplings)
  in
  { base with mvd = Some mvd }

(* Poisson *)

let poisson_reinforce rate =
  make ~name:"poisson" ~strategy:Reinforce
    ~sample:(fun key -> Prng.poisson key (primal rate))
    ~log_density:(fun k ->
      if k < 0 then Ad.scalar Float.neg_infinity
      else
        let open Ad.O in
        (Ad.scale (float_of_int k) (Ad.log rate))
        - rate
        - Ad.scalar (Special.lgamma (float_of_int k +. 1.)))
    ~default:0 ~inject:inject_int ~project:project_int ~meta:nonneg_ints ()

let poisson_mvd rate =
  let base = poisson_reinforce rate in
  { base with
    strategy = Mvd;
    mvd =
      Some
        (fun key ->
          let n = Prng.poisson key (primal rate) in
          (n, [ { param = rate; weight = 1.; plus = n + 1; minus = n } ])) }

let geometric_reinforce p =
  make ~name:"geometric" ~strategy:Reinforce
    ~sample:(fun key ->
      let pv = primal p in
      let u = Float.max (Prng.uniform key) 1e-300 in
      int_of_float (Float.floor (Float.log u /. Float.log (1. -. pv))))
    ~log_density:(fun k ->
      if k < 0 then Ad.scalar Float.neg_infinity
      else
        Ad.O.(
          Ad.scale (float_of_int k) (log_stable (Ad.scalar 1. - p))
          + log_stable p))
    ~default:0 ~inject:inject_int ~project:project_int ~meta:nonneg_ints ()

let binomial_log_density n p k =
  if k < 0 || k > n then Ad.scalar Float.neg_infinity
  else
    let choose =
      Special.lgamma (float_of_int (n + 1))
      -. Special.lgamma (float_of_int (k + 1))
      -. Special.lgamma (float_of_int (n - k + 1))
    in
    let failures = float_of_int (n - k) in
    Ad.O.(
      Ad.scalar choose
      + Ad.scale (float_of_int k) (log_stable p)
      + Ad.scale failures (log_stable (Ad.scalar 1. - p)))

let binomial_base ~strategy ?support n p =
  make ~name:"binomial" ~strategy
    ~sample:(fun key ->
      let pv = primal p in
      let count = ref 0 in
      Array.iter
        (fun k -> if Prng.bernoulli k pv then incr count)
        (Prng.split_many key n);
      !count)
    ~log_density:(binomial_log_density n p)
    ~default:0 ~inject:inject_int ~project:project_int ?support
    ~meta:(int_range 0 n) ()

let binomial_reinforce n p = binomial_base ~strategy:Reinforce n p

let binomial_enum n p =
  binomial_base ~strategy:Enum ~support:(List.init (n + 1) Fun.id) n p

let discrete_uniform_enum n =
  if n < 1 then invalid_arg "Dist.discrete_uniform_enum: n < 1";
  let logp = -.Float.log (float_of_int n) in
  make ~name:"discrete_uniform" ~strategy:Enum
    ~sample:(fun key -> Prng.categorical key (Array.make n 1.))
    ~log_density:(fun i ->
      if i >= 0 && i < n then Ad.scalar logp else Ad.scalar Float.neg_infinity)
    ~default:0 ~inject:inject_int ~project:project_int
    ~support:(List.init n Fun.id) ~meta:finite_meta ()

(* Diagonal multivariate normal *)

let log_density_mv_normal_diag ~mean ~std x =
  let open Ad.O in
  let z = (x - mean) / std in
  let d = float_of_int (Tensor.size (Ad.value mean)) in
  Ad.scale (-0.5) (Ad.sum (z * z))
  - Ad.sum (Ad.log std)
  - Ad.scalar (0.5 *. d *. log_2pi)

(* Per-instance log-density of [n] diagonal normals: [x] carries the
   instance axis; parameters are either shared (plate lift) or
   data-indexed (leading dimension = n, see [param_row]). *)
let log_density_n_mv_normal_diag ~mean ~std x =
  let xs = Ad.shape x in
  let n = xs.(0) in
  let per_dim =
    float_of_int
      (Array.fold_left (fun a b -> a * b) 1
         (Array.sub xs 1 (Array.length xs - 1)))
  in
  let open Ad.O in
  let z = (x - mean) / std in
  let log_std =
    let s = Tensor.shape (Ad.value std) in
    if Array.length s >= 2 && s.(0) = n then reduce_tail (Ad.log std)
    else Ad.sum (Ad.log std)
  in
  Ad.scale (-0.5) (reduce_tail (z * z))
  - log_std
  - Ad.scalar (0.5 *. per_dim *. log_2pi)

(* Row [i] of [eps] is [Prng.normal_tensor (Prng.fold_in key i)] at
   the mean's row shape, so [mean + std * eps] (broadcasting a shared
   parameter over the instance axis) is, row for row, the scalar
   sampler's [Prng.normal_tensor_mean_std] under that key. *)
let batched_mv_normal_diag mean std =
  let mean_v = Ad.value mean and std_v = Ad.value std in
  let eps key n = draw_rows Prng.normal_into key n (row_shape mean_v n) in
  { sample_n =
      (fun key n ->
        Ad.const (Tensor.add mean_v (Tensor.mul std_v (eps key n))));
    log_density_n = log_density_n_mv_normal_diag ~mean ~std;
    reparam_n =
      Some (fun key n -> Ad.O.(mean + (std * Ad.const (eps key n))));
    stack = stack_real;
    unstack = unstack_real }

let mv_normal_diag_base ~strategy ?reparam mean std =
  make ~name:"mv_normal_diag" ~strategy
    ~sample:(fun key ->
      Ad.const (Prng.normal_tensor_mean_std key (Ad.value mean) (Ad.value std)))
    ~log_density:(log_density_mv_normal_diag ~mean ~std)
    ~default:(default_zeros (Ad.shape mean))
    ~inject:inject_real ~project:project_real ?reparam ~meta:real_line
    ~batched:(batched_mv_normal_diag mean std) ()

let mv_normal_diag_reparam mean std =
  mv_normal_diag_base ~strategy:Reparam
    ~reparam:(fun key ->
      let eps = Ad.const (Prng.normal_tensor key (Ad.shape mean)) in
      Ad.O.(mean + (std * eps)))
    mean std

let mv_normal_diag_reinforce mean std =
  mv_normal_diag_base ~strategy:Reinforce mean std

(* Vectors of independent Bernoullis (image likelihoods) *)

(* Batched payload shared by both Bernoulli-vector primitives:
   [elementwise x] must carry the instance axis on its leading
   dimension (from the value, the parameters, or both via
   broadcasting); the tail reduction yields the per-instance vector. *)
let batched_bernoulli ~probs_of ~elementwise params =
  { sample_n =
      (fun key n ->
        let params_v = Ad.value params in
        (* [probs_of] is elementwise, so mapping it over every row at once
           gives each row's probabilities bit for bit. *)
        let p = Tensor.to_array (probs_of params_v) in
        let indexed = data_indexed params_v n in
        let finish out off m =
          let poff = if indexed then off else 0 in
          for j = 0 to m - 1 do
            out.(off + j) <- (if out.(off + j) < p.(poff + j) then 1. else 0.)
          done
        in
        Ad.const
          (draw_rows ~finish Prng.uniform_into key n (row_shape params_v n)));
    log_density_n = (fun x -> reduce_tail (elementwise x));
    reparam_n = None;
    stack = stack_real;
    unstack = unstack_real }

let bernoulli_vector probs =
  let elementwise x =
    let open Ad.O in
    (x * log_stable probs)
    + ((Ad.scalar 1. - x) * log_stable (Ad.scalar 1. - probs))
  in
  make ~name:"bernoulli_vector" ~strategy:Reinforce
    ~sample:(fun key ->
      let u = Prng.uniform_tensor key (Ad.shape probs) in
      Ad.const
        (Tensor.map2 (fun ui pi -> if ui < pi then 1. else 0.) u
           (Ad.value probs)))
    ~log_density:(fun x -> Ad.sum (elementwise x))
    ~default:(default_zeros (Ad.shape probs))
    ~inject:inject_real ~project:project_real
    ~meta:{ continuous = false; static_support = Unit_hypercube }
    ~batched:(batched_bernoulli ~probs_of:Fun.id ~elementwise probs) ()

let log_density_bernoulli_logits ~logits x =
  let open Ad.O in
  Ad.neg
    (Ad.sum
       ((x * Ad.softplus (Ad.neg logits))
       + ((Ad.scalar 1. - x) * Ad.softplus logits)))

let bernoulli_logits_vector logits =
  let elementwise x =
    let open Ad.O in
    Ad.neg
      ((x * Ad.softplus (Ad.neg logits))
      + ((Ad.scalar 1. - x) * Ad.softplus logits))
  in
  make ~name:"bernoulli_logits_vector" ~strategy:Reinforce
    ~sample:(fun key ->
      let probs = Tensor.sigmoid (Ad.value logits) in
      let u = Prng.uniform_tensor key (Ad.shape logits) in
      Ad.const (Tensor.map2 (fun ui pi -> if ui < pi then 1. else 0.) u probs))
    ~log_density:(fun x ->
      (* Observed data is a leaf (no gradient flows into [x]), which is
         exactly when the fused scoring kernel's custom adjoint
         [g * (x - sigmoid l)] is the whole gradient — one pass over the
         likelihood instead of the composed softplus/mul/add chain. *)
      if Ad.is_leaf x then
        Ad.sum (Ad.bernoulli_logits_scores ~x:(Ad.value x) logits)
      else log_density_bernoulli_logits ~logits x)
    ~default:(default_zeros (Ad.shape logits))
    ~inject:inject_real ~project:project_real
    ~meta:{ continuous = false; static_support = Unit_hypercube }
      (* The generic payload's [reduce_tail (elementwise x)] walks the
         [n x dim] likelihood ~8 times; the fused kernel makes the
         batched scoring one pass with a one-pass custom adjoint. *)
    ~batched:
      { (batched_bernoulli ~probs_of:Tensor.sigmoid ~elementwise logits) with
        log_density_n =
          (fun x -> Ad.bernoulli_logits_scores ~x:(Ad.value x) logits) }
    ()

(* ------------------------------------------------------------------ *)
(* Batched API *)

let batchable d = Option.is_some d.batched

let batched_exn d =
  match d.batched with
  | Some b -> b
  | None -> raise (Not_batchable (d.name ^ ": no batched execution payload"))

let sample_n d key n = (batched_exn d).sample_n key n
let log_density_batched d x = (batched_exn d).log_density_n x

let iid n d =
  if n < 1 then invalid_arg "Dist.iid: n < 1";
  (match d.strategy with
  | Reparam | Reinforce -> ()
  | s ->
    raise
      (Not_batchable
         (Printf.sprintf "Dist.iid: %s sites cannot be batched"
            (strategy_name s))));
  let b = batched_exn d in
  make
    ~name:(Printf.sprintf "iid(%d,%s)" n d.name)
    ~strategy:d.strategy
    ~sample:(fun key -> b.sample_n key n)
    ~log_density:(fun x -> Ad.sum (b.log_density_n x))
    ~default:(b.stack (Array.make n d.default))
    ~inject:d.inject ~project:d.project
    ?reparam:(Option.map (fun r key -> r key n) b.reparam_n)
    ~meta:d.meta ()

(* Hand-coded estimators: the like-for-like comparators behind
   [overhead_ratio]. Each builds the same one-sample surrogate as the
   automated objective directly against the AD engine — reparameterized
   by hand, densities written out — sharing the model's parameters and
   networks, and (for the VAE) the fused Bernoulli-logits likelihood
   kernel the automated path uses, so the ratio isolates what the
   programmable layers (Gen, ADEV, Compile) cost. *)

let log_2pi = Float.log (2. *. Float.pi)

(* The batch ELBO per datum of [Vae.elbo_per_datum]: encoder, one
   reparameterized latent draw, standard-normal prior, fused pixel
   likelihood, minus the guide density. *)
let vae_surrogate frame images key =
  let n = (Tensor.shape images).(0) in
  let cells = n * Vae.latent_dim in
  let mu, std = Vae.encode frame (Ad.const images) in
  let eps = Ad.const (Prng.normal_tensor key [| n; Vae.latent_dim |]) in
  let z = Ad.O.(mu + (std * eps)) in
  let log_q = Dist.log_density_mv_normal_diag ~mean:mu ~std z in
  let log_prior =
    Ad.add_scalar
      (-0.5 *. float_of_int cells *. log_2pi)
      (Ad.scale (-0.5) (Ad.sum (Ad.mul z z)))
  in
  let log_lik = Ad.sum (Ad.bernoulli_logits_scores ~x:images (Vae.decode frame z)) in
  Ad.scale (1. /. float_of_int n) Ad.O.(log_lik + log_prior - log_q)

let log_mean_exp terms =
  Ad.add_scalar
    (-.Float.log (float_of_int (List.length terms)))
    (Ad.logsumexp (Ad.stack0 terms))

(* [Cone.objective (Diwhvi (particles, aux))]: an IWELBO over
   [particles] draws from the hierarchical guide, each scored against
   a conditional-importance estimate of the guide's marginal density
   over (x, y) with [aux] angle particles — the drawn angle plus
   [aux - 1] fresh ones from the uniform reverse kernel. The uniform
   densities of the angle and of the reverse kernel cancel. *)
let cone_surrogate ~particles ~aux frame key =
  let p = Store.Frame.get frame in
  let pos rho = Ad.add_scalar 1e-3 (Ad.softplus rho) in
  let radius = pos (p "cone.joint.radius") in
  let spread = pos (p "cone.joint.spread") in
  let normal mu sigma x = Dist.log_density_normal ~mu ~sigma x in
  let angle k = 2. *. Float.pi *. Prng.uniform k in
  let log_weight i =
    let k = Prng.fold_in key i in
    let v = angle (Prng.fold_in k 0) in
    let draw trig j =
      Ad.O.(Ad.scale (trig v) radius + (spread * Ad.scalar (Prng.normal (Prng.fold_in k j))))
    in
    let x = draw Float.cos 1 and y = draw Float.sin 2 in
    let given v' =
      Ad.add
        (normal (Ad.scale (Float.cos v') radius) spread x)
        (normal (Ad.scale (Float.sin v') radius) spread y)
    in
    let log_q =
      log_mean_exp
        (given v :: List.init (aux - 1) (fun j -> given (angle (Prng.fold_in k (3 + j)))))
    in
    let prior = Ad.scalar 3. in
    let log_p =
      Ad.O.(
        normal (Ad.scalar 0.) prior x
        + normal (Ad.scalar 0.) prior y
        + normal ((x * x) + (y * y)) (Ad.scalar 0.5) (Ad.scalar 5.))
    in
    Ad.sub log_p log_q
  in
  log_mean_exp (List.init particles log_weight)

(* Whether the hand-coded and automated one-sample estimates agree in
   mean within three standard errors over [keys] keys. Returns the
   verdict and a one-line summary. *)
let agree ~keys ~hand ~automated =
  let h = List.init keys hand and a = List.init keys automated in
  let open Common in
  let se = Float.sqrt ((variance h +. variance a) /. float_of_int keys) in
  let diff = Float.abs (mean h -. mean a) in
  ( diff <= 3. *. se,
    Printf.sprintf "hand %.4f vs automated %.4f (diff %.4f, 3 SE %.4f)" (mean h)
      (mean a) diff (3. *. se) )

(* The [chain] model [ppvi serve] registers: [Batcher.chain_latents]
   standard-normal latents, each driving a [chain_depth]-deep tanh
   recurrence; the heads sum into the mean of one observed normal. The
   guide is a mean-field normal at its registered parameters (mean 0,
   scale softplus 0 + 1e-3). Scores, ELBO estimates and samples use
   plain floats, as a hand-coder would; the gradient uses the AD
   engine. *)
let chain_depth = 96
let chain_obs = 0.5
let guide_scale = Float.log 2. +. 1e-3

let log_normal ~mu ~sigma x =
  let z = (x -. mu) /. sigma in
  (-0.5 *. (z *. z)) -. Float.log sigma -. (0.5 *. log_2pi)

let rec chain_head h z d =
  if d = 0 then h else chain_head (Float.tanh ((0.9 *. h) +. (0.1 +. (0.3 *. z)))) z (d - 1)

let chain_log_joint zs =
  let prior = List.fold_left (fun acc z -> acc +. log_normal ~mu:0. ~sigma:1. z) 0. zs in
  let s = List.fold_left (fun acc z -> acc +. chain_head z z chain_depth) 0. zs in
  prior +. log_normal ~mu:s ~sigma:1. chain_obs

let guide_draw key =
  List.init Batcher.chain_latents (fun i -> guide_scale *. Prng.normal (Prng.fold_in key i))

let guide_log_density zs =
  List.fold_left (fun acc z -> acc +. log_normal ~mu:0. ~sigma:guide_scale z) 0. zs

(* One reparameterized ELBO sample and its gradient with respect to
   the guide's 2 * [chain_latents] parameters. *)
let chain_grad key =
  let params = List.init Batcher.chain_latents (fun _ -> (Ad.scalar 0., Ad.scalar 0.)) in
  let normal mu sigma x = Dist.log_density_normal ~mu ~sigma x in
  let zs, log_q =
    List.split
      (List.mapi
         (fun i (mu, rho) ->
           let std = Ad.add_scalar 1e-3 (Ad.softplus rho) in
           let z = Ad.O.(mu + (std * Ad.scalar (Prng.normal (Prng.fold_in key i)))) in
           (z, normal mu std z))
         params)
  in
  let rec head h z d =
    if d = 0 then h
    else head (Ad.tanh (Ad.add (Ad.scale 0.9 h) (Ad.add_scalar 0.1 (Ad.scale 0.3 z)))) z (d - 1)
  in
  let one = Ad.scalar 1. in
  let s = Ad.add_list (List.map (fun z -> head z z chain_depth) zs) in
  let log_p =
    Ad.add
      (Ad.add_list (List.map (normal (Ad.scalar 0.) one) zs))
      (normal s one (Ad.scalar chain_obs))
  in
  let surrogate = Ad.sub log_p (Ad.add_list log_q) in
  Ad.backward surrogate;
  (* A grad reply carries every parameter's gradient. *)
  List.iter (fun (mu, rho) -> ignore (Ad.grad mu, Ad.grad rho)) params;
  Ad.to_float surrogate

(* The value of a hand-coded reply: the score, the ELBO estimate, the
   sample's guide log density, or the gradient sample's objective. *)
let chain_value = function
  | Proto.Score { trace; _ } ->
    chain_log_joint
      (List.init Batcher.chain_latents (fun i ->
           match List.assoc (Printf.sprintf "z%d" i) trace with
           | Proto.Scalar f -> f
           | Proto.Vector _ -> nan))
  | Proto.Elbo { seed; particles; _ } ->
    let total = ref 0. in
    for p = 0 to particles - 1 do
      let zs = guide_draw (Prng.fold_in (Prng.key seed) p) in
      total := !total +. chain_log_joint zs -. guide_log_density zs
    done;
    !total /. float_of_int particles
  | Proto.Sample { seed; _ } -> guide_log_density (guide_draw (Prng.key seed))
  | Proto.Grad { seed; _ } -> chain_grad (Prng.key seed)
  | _ -> nan

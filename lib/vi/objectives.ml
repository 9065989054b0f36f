open Adev.Syntax

let elbo ~model ~guide =
  let* _, trace, logq = Gen.simulate guide in
  let* logp = Gen.log_density model trace in
  Adev.return (Ad.sub logp logq)

let iwelbo ?(batched = false) ~particles ~model ~guide () =
  if particles < 1 then invalid_arg "Objectives.iwelbo: particles < 1";
  Obs.hist "objective/particles" (float_of_int particles);
  let sequential =
    let particle =
      let* _, trace, logq = Gen.simulate guide in
      let* logp = Gen.log_density model trace in
      Adev.return (Ad.sub logp logq)
    in
    let* logws = Adev.replicate particles particle in
    Adev.return
      (Ad.sub
         (Ad.logsumexp (Ad.stack0 logws))
         (Ad.scalar (Float.log (float_of_int particles))))
  in
  if not batched then sequential
  else
    (* All particles as ONE vectorized pass: one batched draw per guide
       site, one [particles]-vector of log weights, one logsumexp over
       the particle axis. Falls back to the sequential estimator (same
       key) when something in the pair cannot be rank-lifted. *)
    let vectorized =
      Adev.delay (fun () ->
          let* _, trace, logq = Gen.simulate_batched ~n:particles guide in
          let* logp = Gen.log_density_batched ~n:particles model trace in
          Adev.return
            (Ad.sub
               (Ad.logsumexp_axis 0 (Ad.sub logp logq))
               (Ad.scalar (Float.log (float_of_int particles)))))
    in
    Adev.or_else vectorized sequential

let elbo_batched ~n ~model ~guide =
  if n < 1 then invalid_arg "Objectives.elbo_batched: n < 1";
  (* Delayed so callers can [Adev.or_else] a sequential fallback: the
     vectorized evaluators refuse while constructing the term. *)
  Adev.delay (fun () ->
      let* _, trace, logq = Gen.simulate_batched ~n guide in
      let* logp = Gen.log_density_batched ~n model trace in
      Adev.return (Ad.sub logp logq))

let marginal_guide ~keep ~reverse ~aux_particles guide_joint =
  Gen.marginal ~keep guide_joint
    (Gen.importance ~particles:aux_particles reverse)

let hvi ~keep ~reverse ?(aux_particles = 1) ~model ~guide_joint () =
  elbo ~model ~guide:(marginal_guide ~keep ~reverse ~aux_particles guide_joint)

let diwhvi ~particles ~keep ~reverse ~aux_particles ~model ~guide_joint =
  iwelbo ~particles ~model
    ~guide:(marginal_guide ~keep ~reverse ~aux_particles guide_joint)
    ()

let sir ~particles ~model ~proposal =
  Gen.normalize model (Gen.importance_prior ~particles (Gen.Packed proposal))

let qwake ~particles ~model ~proposal ~guide =
  let* _, trace, _ = Gen.simulate (sir ~particles ~model ~proposal) in
  let* logq = Gen.log_density guide trace in
  Adev.return logq

let pwake ~particles ~model ~proposal =
  let* _, trace, logw = Gen.simulate (sir ~particles ~model ~proposal) in
  let* logp = Gen.log_density model trace in
  Adev.return (Ad.sub logp logw)

let forward_kl_sample ~model_sample ~guide =
  let* logq = Gen.log_density guide model_sample in
  Adev.return logq

let symmetric_elbo ~particles ~model ~proposal ~guide =
  let* e = elbo ~model ~guide in
  let* f = qwake ~particles ~model ~proposal ~guide in
  Adev.return (Ad.scale 0.5 (Ad.add e f))

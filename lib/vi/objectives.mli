(** Variational objectives as lambda_ADEV programs.

    Every objective here is an ordinary [Ad.t Adev.t] value built from
    the compiled [Gen.simulate] / [Gen.log_density] of user model and
    guide programs — the paper's Section 2 workflow. Users are not
    limited to this menu: any composition of [Adev] and [Gen] evaluators
    is a valid objective (the point of programmable VI); these are the
    standard ones used by the experiments.

    Conventions: the {e model} is a generative program whose [observe]
    statements absorb the data, defined over exactly the addresses the
    {e guide} samples. All objectives are to be {e maximized}
    ([Optim.Ascend]) unless noted. *)

val elbo : model:'a Gen.t -> guide:'b Gen.t -> Ad.t Adev.t
(** The evidence lower bound,
    [E_{z ~ guide} (log p(z, y) - log q(z))] (Eqn. 3). With [marginal] /
    [normalize] in either program, densities are unbiased stochastic
    estimates and the objective is the correspondingly looser bound of
    Appendix A.2. *)

val iwelbo :
  ?batched:bool ->
  particles:int ->
  model:'a Gen.t ->
  guide:'b Gen.t ->
  unit ->
  Ad.t Adev.t
(** The importance-weighted ELBO of Burda et al.:
    [E log (1/N sum_i p(z_i, y) / q(z_i))].

    With [~batched:true] the [N] particles are drawn as ONE vectorized
    pass ([Gen.simulate_batched] / [Gen.log_density_batched]): each
    guide site makes a single rank-lifted draw with the particle axis
    leading, and the bound is one [logsumexp] over that axis — same
    estimator, one tape instead of [N]. Falls back to the sequential
    construction (under the same key) when the pair cannot be
    rank-lifted; the default [false] preserves the historical sequential
    key stream exactly. *)

val elbo_batched : n:int -> model:'a Gen.t -> guide:'b Gen.t -> Ad.t Adev.t
(** [n] independent ELBO terms as one vectorized pass, returned as an
    [[n]]-vector (one per instance). Written for plated-minibatch
    training: model and guide see stacked data, data-indexed parameters
    (leading axis [n]) give each instance its own row. Average it (or
    feed [Train.fit_batched]) to get the minibatch ELBO.
    @raise Dist.Not_batchable when a site cannot be rank-lifted — wrap
    in [Adev.or_else] or keep a per-datum loop as fallback. *)

val hvi :
  keep:string list ->
  reverse:(Trace.t -> Gen.packed) ->
  ?aux_particles:int ->
  model:'a Gen.t ->
  guide_joint:'b Gen.t ->
  unit ->
  Ad.t Adev.t
(** Hierarchical VI: the guide is [guide_joint] (which samples auxiliary
    variables besides [keep]) marginalized onto [keep] with importance
    sampling from the [reverse] kernel; [aux_particles] = 1 gives HVI,
    [> 1] gives IWHVI (Sobolev and Vetrov). Then the ordinary ELBO is
    applied to the marginal guide. *)

val diwhvi :
  particles:int ->
  keep:string list ->
  reverse:(Trace.t -> Gen.packed) ->
  aux_particles:int ->
  model:'a Gen.t ->
  guide_joint:'b Gen.t ->
  Ad.t Adev.t
(** Doubly importance-weighted HVI: IWELBO over the marginalized guide
    (SIR estimates of marginal densities inside the IWELBO objective). *)

val qwake :
  particles:int -> model:'a Gen.t -> proposal:'b Gen.t -> guide:'c Gen.t ->
  Ad.t Adev.t
(** The reweighted-wake-sleep wake-phase guide objective (Appendix B):
    [E_{z ~ SIR(model, proposal)} (- log q(z))], with the SIR proposal
    [proposal] held fixed (pass a detached-parameter guide) and [guide]
    carrying the live parameters. Maximizing it minimizes an inclusive
    (forward) KL surrogate. *)

val pwake :
  particles:int -> model:'a Gen.t -> proposal:'b Gen.t -> Ad.t Adev.t
(** The wake-phase model objective (Appendix B):
    [E_{(z, w) ~ SIR(model, proposal)} (log p(z, y) - log w)]. *)

val forward_kl_sample : model_sample:Trace.t -> guide:'a Gen.t -> Ad.t Adev.t
(** [- log q(z)] at a trace sampled from the true joint — the
    wake-sleep "sleep" term, usable when the model can be forward
    sampled. To be maximized. *)

val symmetric_elbo :
  particles:int -> model:'a Gen.t -> proposal:'b Gen.t -> guide:'c Gen.t ->
  Ad.t Adev.t
(** A symmetric-divergence objective in the style of Domke's diagnostic:
    the average of the ELBO and the SIR-approximated forward-KL term
    ([qwake]); exercises objective composition beyond the standard
    menu. *)

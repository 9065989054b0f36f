(** Variational autoencoder on sprite digits (Table 1 / Fig. 10).

    Batched: model and guide are defined over one vector-valued latent
    address holding the whole minibatch (shape [batch x latent_dim]), so
    a gradient step is a handful of tensor ops — the same vectorization
    the paper gets from [vmap]. The hand-coded comparator for Table 1
    lives in [lib/baseline/vae_hand.ml] and shares {!register}'s
    parameters. *)

val latent_dim : int
val hidden_dim : int

val register : Store.t -> Prng.key -> unit
(** Register encoder (trunk + mu/rho heads) and decoder parameters. *)

val encode : Store.Frame.t -> Ad.t -> Ad.t * Ad.t
(** [encode frame images] (images: [n x 144]) = (mu, std), each
    [n x latent_dim]. *)

val decode : Store.Frame.t -> Ad.t -> Ad.t
(** [decode frame z] = pixel logits, [n x 144]. *)

val model : Store.Frame.t -> Tensor.t -> unit Gen.t
(** Generative program for a batch of images: the minibatch prior is a
    plated site ([Dist.iid]: one rank-lifted [batch x latent] draw),
    then decoder and Bernoulli pixel likelihood. *)

val guide : Store.Frame.t -> Tensor.t -> unit Gen.t
(** Amortized Gaussian posterior from the encoder. *)

val model1 : Store.Frame.t -> Tensor.t -> unit Gen.t
(** Single-datum model (image: [[image_dim]] vector, one [latent_dim]
    latent). Rank-polymorphic: under [Gen.simulate_batched] the latent
    site lifts to a particle axis and the observation broadcasts. *)

val guide1 : Store.Frame.t -> Tensor.t -> unit Gen.t
(** Single-datum amortized posterior. *)

val elbo_per_datum :
  ?compiled:bool -> Store.Frame.t -> Tensor.t -> Ad.t Adev.t
(** The batch ELBO divided by the batch size. [?compiled] is accepted
    and ignored: every program runs on the interpreter, and the
    benchmark in [ledger/] still passes it. *)

val elbo_per_datum_looped : Store.Frame.t -> Tensor.t -> Ad.t Adev.t
(** The same objective computed the unbatched way: one interpreter pass
    per datum, summed. Reference point for the vectorization
    benchmarks; statistically identical to {!elbo_per_datum}. *)

val elbo_sliced :
  ?segments:int -> ?remat:bool -> Store.Frame.t -> Tensor.t -> Prng.key ->
  Ad.t
(** The per-datum batch ELBO surrogate built as [segments] (default 1)
    contiguous row-slices, each an independent one-sample estimate
    under [fold_in key i]; with [remat] (default false) each slice's
    tape segment sits behind an [Ad.checkpoint] barrier, so peak live
    tape holds one slice's segment instead of the whole batch's —
    gradients bit-identical to the same sliced build without remat. *)

val step_spec :
  shards:int -> remat:bool -> batch:int -> Prng.key -> Train.shard_spec
(** The data-parallel VAE step spec: shard [i] scores rows
    [i*batch/shards, (i+1)*batch/shards) of the step's (deterministic)
    minibatch, scaled by 1/batch. Feed to {!Train.fit_spec} or
    {!Train.shard_step}. *)

val train :
  ?steps:int -> ?batch:int -> ?lr:float -> ?shards:int -> ?remat:bool ->
  ?guard:Guard.t -> ?persist:Persist.cfg -> ?store:Store.t ->
  Prng.key -> Store.t * Train.report list
(** [?guard] configures resilience (see {!Guard}); [?store] continues
    training from an existing (e.g. checkpoint-loaded) store.
    [?shards] (default 1) trains data-parallel via {!step_spec} on the
    [Parallel] domain pool — bit-reproducible across domain counts for
    a fixed shard count, but a different PRNG stream than
    [shards = 1], which keeps the historical trajectory exactly.
    [?remat] (default false) checkpoints each sample's (or shard's)
    tape segment; gradients stay bit-identical to the same path
    without remat. *)

val grad_step_time :
  Store.t -> batch:int -> repeats:int -> Prng.key -> float
(** Mean seconds per gradient estimate (forward + backward) of the
    automated estimator at the given batch size — the Table 1 "Ours"
    column. *)

val grad_step_time_looped :
  Store.t -> batch:int -> repeats:int -> Prng.key -> float
(** Mean seconds per gradient estimate of the per-datum looped
    reference ({!elbo_per_datum_looped}) at the given batch size. *)

val grad_step_peak_live :
  Store.t -> batch:int -> segments:int -> remat:bool -> Prng.key -> int
(** Peak live tape nodes over one {!elbo_sliced} gradient step
    (counters reset from a quiescent point first). The memory bench
    compares [~segments:4 ~remat:true] against
    [~segments:1 ~remat:false] at batch 256. *)

val grad_step_on :
  Store.t -> images:Tensor.t -> segments:int -> remat:bool -> Prng.key ->
  unit
(** One {!elbo_sliced} gradient step (forward + backward + grad read)
    over pre-drawn images, for callers that bracket it with their own
    GC accounting. *)

val grad_step_once :
  Store.t -> batch:int -> segments:int -> remat:bool -> Prng.key -> unit
(** {!grad_step_on} on a freshly synthesized batch. *)

val grad_step_time_remat :
  Store.t -> batch:int -> segments:int -> repeats:int -> Prng.key -> float
(** Mean seconds per checkpointed ({!elbo_sliced} [~remat:true])
    gradient estimate — the cost of rematerialization's second forward
    pass, gated against {!grad_step_time} in CI. *)

val iwelbo_step_time :
  Store.t -> particles:int -> batched:bool -> repeats:int -> Prng.key -> float
(** Mean seconds per IWELBO gradient estimate on one datum with the
    given particle count, via the vectorized ([batched:true]) or
    sequential particle path. *)

(** Conditional VAE (Sohn et al.; paper Appendix D.4): given one
    quadrant of a digit sprite, fill in the other three.

    Two components, as in the paper: a deterministic baseline network
    trained with pixelwise cross-entropy, and a CVAE whose prior network
    conditions the latent on the observed quadrant. *)

val latent_dim : int
val observed_quadrant : int
val input_dim : int
(** Observed-quadrant pixels (36). *)

val output_dim : int
(** Pixels to fill in (108). *)

val register : Store.t -> Prng.key -> unit

val baseline_loss : Store.Frame.t -> Tensor.t -> Tensor.t -> Ad.t
(** Cross-entropy of the deterministic baseline net's fill-in
    (inputs x targets, batched). To be minimized. *)

val model : Store.Frame.t -> Tensor.t -> Tensor.t -> unit Gen.t
(** [model frame input target]: latent from the conditional prior net,
    generation net fills in the quadrants, Bernoulli likelihood on
    [target]. *)

val guide : Store.Frame.t -> Tensor.t -> Tensor.t -> unit Gen.t
(** Recognition network over (input, target). *)

val elbo : Store.Frame.t -> Tensor.t -> Tensor.t -> Ad.t Adev.t
(** Per-datum ELBO. *)

val model_batch : Store.Frame.t -> Tensor.t -> Tensor.t -> unit Gen.t
(** Stacked-minibatch model (inputs [[b x input_dim]], targets
    [[b x output_dim]]): the latent site carries data-indexed
    [[b x latent]] parameters for the vectorized evaluators. *)

val guide_batch : Store.Frame.t -> Tensor.t -> Tensor.t -> unit Gen.t
(** Stacked-minibatch recognition network. *)

val elbo_batch : Store.Frame.t -> Tensor.t -> Tensor.t -> Ad.t Adev.t
(** The [[b]]-vector of per-datum ELBO terms, computed as one
    vectorized pass ([Objectives.elbo_batched]) with a per-datum
    sequential fallback under the same key. *)

val train_epoch :
  ?guard:Guard.t ->
  store:Store.t ->
  optim:Optim.t ->
  images:Tensor.t ->
  batch:int ->
  Prng.key ->
  float * float
(** One pass (CVAE objective; the baseline net trains jointly on the
    same batches). Returns (mean ELBO per datum, wall seconds) — the
    Fig. 18 measurement. *)

val fill_in : Store.t -> Tensor.t -> Prng.key -> Tensor.t
(** Reconstruct a full sprite from its observed quadrant (Fig. 17):
    returns the 12x12 image with the observed quadrant pasted back. *)

(** An Attend-Infer-Repeat-style structured generative model (Fig. 7,
    Tables 2-3, Fig. 8), scaled to this repository's CPU substrate.

    Scenes contain a variable number of digit glyphs on a canvas. The
    model follows AIR's recurrent structure: a chain of Bernoulli
    "presence" variables decides how many objects to render; each object
    has a discrete position and a continuous appearance code decoded
    into a patch, composed onto the canvas with probabilistic OR, and
    the canvas is observed under a Bernoulli pixel likelihood. The guide
    is an amortized network predicting presence, position, and code from
    the image.

    The discrete latents (presence and position) are where gradient
    estimation strategies matter; {!discrete_strategy} selects one per
    site group, exploring the Table 3 grid. *)

type discrete_strategy = RE | RE_BL | EN | MV

val strategy_name : discrete_strategy -> string
val code_dim : int

val register : Store.t -> Prng.key -> unit

type baselines
(** Running-mean baseline cells, one per guide address (RE_BL). *)

val make_baselines : unit -> baselines

val model : Store.Frame.t -> Tensor.t -> unit Gen.t
(** [model frame image]: the generative program for one (flattened)
    canvas, with the image observed. *)

val guide :
  ?pres:discrete_strategy ->
  ?pos:discrete_strategy ->
  baselines:baselines ->
  Store.Frame.t ->
  Tensor.t ->
  unit Gen.t
(** Amortized guide; [pres] / [pos] choose the strategies of the
    presence flips and position categoricals (both default [RE]). *)

type objective = Elbo | Iwelbo of int | Rws of int

val objective_name : objective -> string

val batch_objectives :
  ?pres:discrete_strategy ->
  ?pos:discrete_strategy ->
  baselines:baselines ->
  objective ->
  Store.Frame.t ->
  Tensor.t ->
  Ad.t Adev.t list
(** One per-image objective per batch row (for [Train.fit_batch]). [Rws]
    returns the wake-phase objectives (model and guide updates
    combined). *)

val train_epoch :
  ?pres:discrete_strategy ->
  ?pos:discrete_strategy ->
  ?guard:Guard.t ->
  store:Store.t ->
  optim:Optim.t ->
  baselines:baselines ->
  objective:objective ->
  images:Tensor.t ->
  batch:int ->
  Prng.key ->
  float * float
(** Run one pass over [images] in minibatches; returns (mean objective,
    wall-clock seconds) — the Table 2 measurement. *)

val count_accuracy : Store.t -> Tensor.t -> int array -> Prng.key -> float
(** Fraction of images whose guide-inferred object count matches the
    label (the Fig. 8 accuracy metric); inference samples the guide. *)

val infer_count : Store.t -> Tensor.t -> Prng.key -> int
(** Sample the guide's object count for one image. *)

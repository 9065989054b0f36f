(** The differentiable probabilistic language (lambda_ADEV) with
    automatic differentiation of expected values.

    A computation of type ['a t] denotes a measure over ['a]-values. The
    implementation is in continuation-passing style: running the
    computation threads a PRNG key and builds a single AD scalar — a
    {e surrogate loss} — whose primal value is an unbiased estimate of
    the program's expectation and whose reverse-mode gradient (via
    [Ad.backward]) is an unbiased estimate of the expectation's gradient
    with respect to every parameter the program closes over.

    This is the reverse-mode ADEV construction of Appendix A.4 of the
    paper: each {!sample} site dispatches on the distribution's gradient
    estimation strategy and wires the appropriate estimator into the
    surrogate —

    - REPARAM: the differentiable sampler's output flows into the
      continuation; the pathwise derivative is ordinary backprop.
    - REINFORCE: the continuation's result [y] is augmented with the
      DiCE / magic-box term [stop(y) * (log p(x) - stop(log p(x)))],
      whose value is 0 and whose gradient is [y * d log p(x)].
    - REINFORCE with baseline: as above with [stop(y) - b].
    - ENUM: the continuation runs once per support element; the result
      is the exactly enumerated expectation (probabilities carry
      gradients).
    - MVD: the continuation runs at the sampled value (pathwise part)
      and, primal-only, at each coupling's positive/negative samples
      (inside [Ad.primal], with downstream sites drawing plain detached
      samples; both marks are domain-local);
      the coupling contributes
      [(param - stop param) * weight * (y+ - y-)], whose value is 0 and
      whose gradient is the measure-valued derivative. Couplings share
      the continuation's randomness (common random numbers).

    The soundness of each construction is checked in
    [test/test_adev.ml] against closed-form gradients and against the
    forward-mode transformation in {!module:Forward}. *)

type 'a t

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t

val sample : 'a Dist.t -> 'a t
(** Draw from a primitive, estimating gradients with its strategy.
    @raise Invalid_argument if the strategy's required data is missing
    (e.g. ENUM without a finite support). *)

val sample_at : string -> 'a Dist.t -> 'a t
(** [sample_at addr d] is {!sample} with a trace address attached for
    observability: when [Obs.live ()], each draw is timed and the
    estimator's score coefficient is fed into the per-site Welford
    accumulator under [(addr, strategy)] (an empty [addr] displays as
    ["<dist-name>"]). The hooks never consume PRNG keys or mutate AD
    state, so [sample_at addr d = sample d] as a measure — bit-for-bit
    when observability is disabled. [Gen]'s interpreters call this
    with the site's trace address. *)

val score : Ad.t -> unit t
(** Multiply the measure by a (nonnegative) density factor, as in the
    paper's [score]: [E (do { score w; m })] integrates [m]'s integrand
    against the [w]-reweighted measure. *)

val score_log : Ad.t -> unit t
(** [score_log lw = score (exp lw)]. *)

val replicate : int -> 'a t -> 'a list t
(** Run a computation [n] times with independent randomness, collecting
    the results (the particle-drawing idiom of IWELBO-style
    objectives). Tail-recursive: safe at very large particle counts. *)

(** {1 Batched sites}

    One rank-lifted sample in place of [n] interpreter passes: the
    drawn value's leading axis is the instance axis (see
    {!Dist.batched}). REPARAM sites lift the pathwise sampler;
    REINFORCE sites collapse the [n] DiCE terms into one
    axis-reduction — elementwise against the per-instance log-density
    vector when the continuation's result is instance-aligned (lower
    variance), against the joint log density otherwise (unbiased by
    independence). *)

val sample_batched : n:int -> 'a Dist.t -> 'a t
(** Draw [n] i.i.d. instances of a primitive as one batched site. Row
    [i] is bit-for-bit the scalar draw under [Prng.fold_in key i].
    @raise Dist.Not_batchable when the primitive has no batched
    payload or its strategy (ENUM, MVD, baseline REINFORCE) cannot be
    collapsed; the check happens before any sampling or baseline
    mutation, so callers can safely retry sequentially with the same
    key (see {!or_else}). *)

val sample_batched_at : string -> n:int -> 'a Dist.t -> 'a t
(** {!sample_batched} with a trace address for observability, as in
    {!sample_at} (the REINFORCE coefficient recorded is the mean of
    the continuation's per-instance primal values). *)

val replicate_batched : int -> 'a Dist.t -> 'a t
(** [replicate_batched n d] rewrites the [replicate n (sample d)]
    particle-drawing idiom into one batched site returning the stacked
    value (use {!Dist.batched}'s [unstack] to recover rows). *)

val keyed : (Prng.key -> 'a t) -> 'a t
(** Expose the ambient key to the computation being built (the plate
    lowering uses it to align batched rows with sequential
    instances). *)

val with_key : Prng.key -> 'a t -> 'a t
(** Run a computation under an explicit key, ignoring the ambient
    one. *)

val or_else : 'a t -> 'a t -> 'a t
(** [or_else m fallback] runs [m]; if it raises a batching-related
    error ([Dist.Not_batchable], a shape error from a rank-assuming
    continuation, or a smoothness error), runs [fallback] under the
    {e same} key. Keys are pure and the AD tape is functional, so the
    retry is safe — with the caveat that a stateful baseline updated
    before a {e downstream} failure would be updated again; batched
    sites themselves refuse before touching baselines. *)

val delay : (unit -> 'a t) -> 'a t
(** Defer the construction of a computation into its run. Interpreters
    that inspect programs eagerly (the vectorized evaluators probe
    every site's batched payload while building the term) raise their
    refusals at construction time; [delay] moves that moment inside
    the run so [or_else] can catch it. *)

(** {1 Running} *)

val run : 'a t -> Prng.key -> ('a -> Ad.t) -> Ad.t
(** Low-level runner (used by [Gen] to embed generative programs). *)

val expectation : Ad.t t -> Prng.key -> Ad.t
(** One-sample surrogate for the expected value: its primal is an
    unbiased estimate of [E m], its reverse-mode gradient an unbiased
    estimate of [grad E m]. This is the paper's [E] operator composed
    with the [adev] transformation. *)

val expectation_mean : ?remat:bool -> samples:int -> Ad.t t -> Prng.key -> Ad.t
(** Average of [samples] independent surrogates (a minibatch of
    estimates); still unbiased, with variance reduced by 1/samples.
    With [remat] (default false) each sample's surrogate sits behind
    its own [Ad.checkpoint] barrier: the per-sample tape segment is
    discarded after construction and rematerialized during backward —
    bit-identical gradients (the explicit per-sample key makes replay
    exact), with peak live tape bounded by one sample's segment. Do
    not combine with REINFORCE-baseline sites (their cells mutate
    between construction and replay; see docs/MEMORY.md). *)

val estimate : ?samples:int -> Ad.t t -> Prng.key -> float
(** Primal-only Monte Carlo estimate (default 1 sample). Runs inside
    [Ad.primal], so it builds no tape; the value is bit-identical to
    the primal of {!expectation_mean}'s surrogate terms. *)

val grad :
  params:(string * Ad.t) list ->
  ?samples:int ->
  Ad.t t ->
  Prng.key ->
  float * (string * Tensor.t) list
(** [grad ~params obj key] runs the surrogate, backpropagates, and
    returns the objective estimate together with the gradient
    accumulated in each named parameter leaf. Parameters must be fresh
    leaf nodes for this call (gradients accumulate per node). *)

(** {1 Sharded steps} *)

exception Unshardable_site of string
(** Raised by a REINFORCE-with-baseline sample site reached inside
    {!in_shard}, before it samples or touches its baseline cell. The
    payload is the site's address ("<dist-name>" when anonymous). A
    baseline cell is mutable state shared by every shard, so its
    updates would depend on how the shards are scheduled. *)

val in_shard : (unit -> 'a) -> 'a
(** [in_shard f] runs [f] as one shard of a data-parallel step: the
    training driver wraps every shard block in it whenever a step has
    more than one shard, on any domain count. The mark is domain-local,
    nests, and is restored when [f] raises. *)

(** {1 Syntax} *)

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

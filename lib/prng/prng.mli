(** Splittable, counter-based pseudo-random number generation.

    Keys are pure values: drawing from a key never mutates it. Instead,
    {!split} deterministically derives independent child keys, in the
    style of JAX's PRNG. All samplers are deterministic functions of the
    key, which makes every experiment in this repository reproducible
    from a single seed. The underlying generator is SplitMix64. *)

type key
(** An immutable PRNG key. *)

val key : int -> key
(** [key seed] builds a root key from an integer seed. *)

val split : key -> key * key
(** Derive two independent child keys. *)

val split_many : key -> int -> key array
(** [split_many k n] derives [n] independent child keys. Child [i] does
    not depend on [n], so a longer split extends a shorter one. *)

val fold_in : key -> int -> key
(** [fold_in k i] derives the child key indexed by [i] — handy for
    per-iteration or per-site keys without threading state. *)

(** {1 Raw draws}

    Each draw consumes the whole key; to draw several values, split
    first (or use the vector samplers below, which split internally). *)

val uniform : key -> float
(** Uniform on the half-open interval [\[0, 1)]. *)

val uniform_range : key -> float -> float -> float
(** [uniform_range k lo hi] is uniform on [\[lo, hi)].
    @raise Invalid_argument on non-finite bounds or [lo > hi]. *)

val normal : key -> float
(** Standard normal (Box-Muller). *)

val normal_mean_std : key -> float -> float -> float

val exponential : key -> float
(** Rate-1 exponential. *)

val bernoulli : key -> float -> bool
(** [bernoulli k p] is [true] with probability [p].
    @raise Invalid_argument on a NaN probability. *)

val categorical : key -> float array -> int
(** Sample an index proportionally to the (unnormalized, nonnegative)
    weights. @raise Invalid_argument on an all-zero or empty weight
    vector, and on any NaN or negative weight (anywhere in the vector,
    even if the total happens to be positive). *)

val categorical_logits : key -> float array -> int
(** Sample an index from unnormalized log-weights (Gumbel-max).
    @raise Invalid_argument on an empty vector, any NaN logit, or when
    every logit is [-inf] (no mass anywhere). *)

val gamma : key -> float -> float
(** [gamma k shape] samples a Gamma(shape, 1) variate
    (Marsaglia-Tsang; valid for any [shape > 0]).
    @raise Invalid_argument unless [shape] is positive and finite. *)

val beta : key -> float -> float -> float
(** [beta k a b] samples a Beta(a, b) variate. *)

val poisson : key -> float -> int
(** [poisson k rate] samples a Poisson(rate) count; [rate = 0.] yields 0.
    @raise Invalid_argument on a NaN or negative rate. *)

val weibull : key -> shape:float -> scale:float -> float
(** Weibull variate via inverse transform. The measure-valued derivative
    of the normal's mean uses Weibull(shape=2, scale=sqrt 2).
    @raise Invalid_argument unless [shape] and [scale] are positive and
    finite. *)

val maxwell : key -> float
(** Magnitude of a standard Maxwell variate (density proportional to
    [x^2 exp(-x^2/2)] on [x >= 0]). The double-sided Maxwell used by
    the measure-valued derivative of the normal's scale is obtained by
    attaching a random sign. *)

val permutation : key -> int -> int array
(** A uniformly random permutation of [0 .. n-1]. *)

(** {1 Vector draws}

    Stream guarantee: a vector of [n] draws under key [k] is, slot for
    slot and bit for bit, [Array.map uniform (split_many k n)] (resp.
    {!normal}) — the [i]-th value is always the draw of child [i], so a
    kernel that writes draws in place reproduces the key-array pipeline
    exactly. *)

val uniform_into : key -> float array -> int -> int -> unit
(** [uniform_into k out off n] writes the draws of
    [Array.map uniform (split_many k n)] into [out.(off .. off + n - 1)].
    Every other slot of [out] is left untouched, and the kernel
    allocates nothing. @raise Invalid_argument when [n < 0] or the
    slots do not lie inside [out]. *)

val normal_into : key -> float array -> int -> int -> unit
(** [normal_into k out off n] is {!uniform_into} for {!normal} draws. *)

(** {1 Tensor-valued draws}

    Built on the vector draws: a tensor of shape [s] holds, in row-major
    order, the draws of [split_many k (size s)]. *)

val uniform_tensor : key -> int array -> Tensor.t
val normal_tensor : key -> int array -> Tensor.t

val normal_tensor_mean_std : key -> Tensor.t -> Tensor.t -> Tensor.t
(** Elementwise [mean + std * eps] with iid standard-normal [eps];
    mean and std must share a shape. *)

(** Dense row-major float tensors.

    This is the numeric substrate for the whole system: rank-0 tensors act
    as scalars, rank-1 as vectors, rank-2 as matrices. All operations are
    pure (they allocate a fresh result) and support NumPy-style
    right-aligned broadcasting where documented. *)

type t
(** A dense tensor of [float]s with an immutable shape and cached
    row-major strides. The underlying buffer is not exposed; use {!get},
    {!to_array}, or the iteration helpers. An explicit in-place API
    ({!add_}, {!axpy}, {!scale_}, {!fill_}, {!map2_}) exists for owners
    of a buffer — see the section below for the aliasing rules.

    Large elementwise maps and all matrix products run on the [Parallel]
    domain pool when it is configured with more than one domain
    ([PPVI_DOMAINS] / [--domains]). Kernels partition work into
    fixed-size blocks independent of the domain count and never
    reassociate floating-point accumulation across blocks, so every
    result is bit-for-bit identical to sequential execution. *)

exception Shape_error of string
(** Raised when operand shapes are incompatible. *)

(** {1 Construction} *)

val scalar : float -> t
(** [scalar x] is the rank-0 tensor holding [x]. *)

val of_array : int array -> float array -> t
(** [of_array shape data] wraps [data] (copied) as a tensor of [shape].
    @raise Shape_error if [Array.length data] does not match the shape. *)

val of_list1 : float list -> t
(** Rank-1 tensor from a list. *)

val of_list2 : float list list -> t
(** Rank-2 tensor from rows; all rows must have equal length. *)

val zeros : int array -> t
val ones : int array -> t
val full : int array -> float -> t

val init : int array -> (int array -> float) -> t
(** [init shape f] builds a tensor whose element at multi-index [ix] is
    [f ix]. *)

val eye : int -> t
(** [eye n] is the [n] x [n] identity matrix. *)

(** {1 Inspection} *)

val shape : t -> int array
val rank : t -> int
val size : t -> int

val get : t -> int array -> float
(** [get t ix] reads the element at multi-index [ix]. *)

val get_flat : t -> int -> float
(** [get_flat t i] reads the [i]-th element in row-major order. *)

val to_scalar : t -> float
(** Extract the value of a rank-0 (or single-element) tensor.
    @raise Shape_error on tensors with more than one element. *)

val to_array : t -> float array
(** Row-major copy of the contents. *)

val is_scalar : t -> bool

val same_shape : t -> t -> bool
(** Structural equality of the two shapes, without allocating. *)

(** {1 In-place operations}

    These mutate the tensor's buffer directly and are the backbone of
    the AD engine's gradient accumulation and the optimizer's moment
    updates. The caller must own the buffer exclusively: in particular,
    {!reshape} and {!flatten} return tensors {e sharing} their
    argument's buffer, and [Ad] may hand out tensors that alias graph
    internals — {!copy} first when in doubt. *)

val copy : t -> t
(** A deep copy (fresh buffer, same shape). *)

val fill_ : t -> float -> unit
(** [fill_ t x] overwrites every element of [t] with [x]. *)

val scale_ : float -> t -> unit
(** [scale_ c t] multiplies every element of [t] by [c] in place. *)

val add_ : t -> t -> unit
(** [add_ dst src] adds [src] into [dst] elementwise. Shapes must be
    equal (no broadcasting). @raise Shape_error otherwise. *)

val axpy : alpha:float -> x:t -> t -> unit
(** [axpy ~alpha ~x y] performs [y <- y + alpha * x] elementwise.
    Shapes must be equal. @raise Shape_error otherwise. *)

val map2_ : (float -> float -> float) -> t -> t -> unit
(** [map2_ f dst src] sets [dst_i <- f dst_i src_i]. Shapes must be
    equal. @raise Shape_error otherwise. *)

val adam_update :
  beta1:float -> beta2:float -> cm:float -> cv:float -> eps:float ->
  slr:float -> m:t -> v:t -> g:t -> t -> t
(** [adam_update ... ~m ~v ~g x] is one Adam step in one pass. With
    [c1 = 1 - beta1] and [c2 = 1 - beta2], per element and in this
    order: [m <- beta1 * m + c1 * g] and [v <- beta2 * v + c2 * (g * g)]
    in place, then the result is the fresh tensor
    [x + slr * ((cm * m) / (sqrt (cv * v) + eps))]. Shapes must be
    equal. @raise Shape_error otherwise. *)

(** {1 Elementwise maps} *)

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** Broadcasting binary map: shapes are aligned from the right; a
    dimension of size 1 (or a missing dimension) broadcasts.
    @raise Shape_error when shapes are not broadcast-compatible. *)

val broadcast_shapes : int array -> int array -> int array
(** The result shape of broadcasting two shapes.
    @raise Shape_error when incompatible. *)

val broadcast_to : t -> int array -> t
(** Materialize a tensor broadcast to a larger shape. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val pow_scalar : t -> float -> t

val exp : t -> t
val log : t -> t
val sqrt : t -> t
val sigmoid : t -> t
val tanh : t -> t
val relu : t -> t

val softplus : t -> t
(** Numerically stable [log (1 + exp x)]. *)

val recip : t -> t
(** Elementwise [1. /. x] — the [log] vjp, in one pass. *)

val sigmoid_deriv : t -> t
(** Elementwise [s *. (1. -. s)] over sigmoid {e outputs} — the
    [sigmoid] vjp, in one pass. *)

val tanh_deriv : t -> t
(** Elementwise [1. -. s *. s] over tanh {e outputs} — the [tanh] vjp,
    in one pass. *)

val relu_deriv : t -> t
(** Elementwise [if x > 0. then 1. else 0.] over relu {e inputs} — the
    [relu] vjp, in one pass. *)

val clip : min:float -> max:float -> t -> t

val global_norm : t list -> float
(** The L2 norm of all elements of all tensors, viewed as one flat
    vector. Computed with a scaled sum of squares, so it does not
    overflow for representable norms; non-finite entries propagate
    (the result is [nan] or [infinity]). *)

val clip_by_global_norm : max_norm:float -> t list -> t list
(** Rescale the tensors jointly so their {!global_norm} is at most
    [max_norm]; lists whose joint norm is already within the bound
    (or is non-finite) are returned unchanged. Never increases the
    global norm. @raise Invalid_argument if [max_norm <= 0]. *)

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val max_elt : t -> float
val min_elt : t -> float

val sum_keep : t -> t
(** Full sum as a rank-0 tensor. *)

val sum_axis : int -> t -> t
(** [sum_axis ax t] sums out dimension [ax] (removing it). *)

val mean_axis : int -> t -> t

val argmax : t -> int
(** Row-major index of the maximum element. *)

val logsumexp : t -> float
(** Numerically stable log of the sum of exponentials of all elements. *)

val softmax : t -> t
(** Softmax over all elements (stable). *)

val max_axis : int -> t -> t
(** [max_axis ax t] takes the elementwise maximum along dimension [ax]
    (removing it). Empty reductions yield [neg_infinity]. *)

val logsumexp_axis : int -> t -> t
(** [logsumexp_axis ax t] is a numerically stable
    [log (sum (exp t))] along dimension [ax] (removing it), the
    axis-wise counterpart of {!logsumexp}. Rows whose maximum is
    [neg_infinity] reduce to [neg_infinity] rather than NaN. *)

val bernoulli_logits_scores : logits:t -> x:t -> t
(** Fused Bernoulli-with-logits row scoring: broadcasts [logits] and
    [x] together, then sums the elementwise log-pmf
    [x*l - softplus l] (identically
    [-(x * softplus (-l) + (1 - x) * softplus l)]) over every trailing
    axis, yielding the per-row score vector indexed by the leading
    axis. One pass, no intermediate tensors — the hot scoring kernel
    of the batched likelihood path.
    @raise Shape_error when both operands are scalars. *)

val bernoulli_logits_scores_fwd : logits:t -> x:t -> t * t
(** {!bernoulli_logits_scores} together with the sigmoid of the
    broadcast logits, computed from the same exponentials, so a
    reverse pass can reuse it without re-evaluating [exp]. *)

val bernoulli_logits_scores_vjp : sigma:t -> x:t -> g:t -> t
(** Cotangent of {!bernoulli_logits_scores} with respect to [logits]
    at the broadcast shape: [g_i * (x - sigma)] with [g] the per-row
    cotangent and [sigma] the cached sigmoid from
    {!bernoulli_logits_scores_fwd}. Callers reduce back to the operand
    shape. *)

(** {1 Linear algebra} *)

val matmul : t -> t -> t
(** Rank-2 x rank-2 matrix product, rank-2 x rank-1 matrix-vector
    product, or rank-1 x rank-2 vector-matrix product. Cache-blocked
    and parallelized over row blocks above a size threshold, with
    results bit-identical to the naive sequential triple loop.
    @raise Shape_error on dimension mismatch. *)

val matmul_t : t -> t -> t
(** [matmul_t a b] is [a * transpose b] for [a : m x k] and [b : n x k],
    computed directly from [b]'s rows — no transpose is materialized.
    Used by the dense-layer backward pass. Bit-identical to
    [matmul a (transpose b)]. @raise Shape_error on rank or dimension
    mismatch (rank-2 operands only). *)

val t_matmul : t -> t -> t
(** [t_matmul a b] is [transpose a * b] for [a : m x k] and [b] either
    [m x n] (result [k x n]) or a length-[m] vector (result length [k]),
    again without materializing the transpose. Bit-identical to
    [matmul (transpose a) b]. @raise Shape_error on mismatch. *)

val transpose : t -> t
(** Transpose of a rank-2 tensor (rank-0/1 returned unchanged). *)

val dot : t -> t -> float
(** Inner product of two equal-sized tensors (flattened). *)

val outer : t -> t -> t
(** Outer product of two rank-1 tensors. *)

(** {1 Structural} *)

val reshape : int array -> t -> t
val flatten : t -> t

val concat0 : t list -> t
(** Concatenate along axis 0; all other dimensions must agree. *)

val stack0 : t list -> t
(** Stack equal-shaped tensors along a new leading axis. *)

val slice0 : t -> int -> t
(** [slice0 t i] is the [i]-th sub-tensor along axis 0 (rank drops 1). *)

val rows : t -> t list
(** All axis-0 slices of a tensor of rank >= 1. *)

val take_rows : t -> int list -> t
(** Gather the given axis-0 slices into a new tensor. *)

(** {1 Buffer pool}

    A {!Pool.t} recycles output buffers across repeated executions of
    the same computation ([Ad.checkpoint]'s segment pool). While
    installed as the ambient allocator (see {!set_pool}), every
    operation's output buffer is drawn from the pool's free lists
    instead of [Array.make]; {!Pool.reset} reclaims everything handed
    out since the previous reset. Handed-out buffers are zero-filled,
    so pooled execution is bit-identical to fresh allocation.

    Soundness is the caller's contract: [reset] must only run once no
    tensor built from the previous generation's buffers is referenced
    any longer. The ambient pool is domain-local: worker domains
    spawned by [Parallel] never observe the coordinating domain's
    pool. *)

module Pool : sig
  type t

  val create : unit -> t

  val alloc : t -> int -> float array
  (** [alloc p n] hands out a zero-filled buffer of length [n], reusing
      a free buffer of exactly that length when one is available. *)

  val reset : t -> unit
  (** Return every buffer handed out since the last reset to the free
      lists. See the soundness contract above. *)

  val hits : t -> int
  val misses : t -> int

  val floats : t -> int
  (** Total floats owned by the pool. *)
end

val current_pool : unit -> Pool.t option
(** The ambient pool of the current domain, if any. *)

val set_pool : Pool.t option -> unit
(** Install (or clear) the ambient pool for the current domain. All
    subsequent op-output allocations on this domain are routed through
    it until cleared. *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Exact structural equality (shape and elements). *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Same shape and all elements within [tol] (default [1e-9]). *)

val all_finite : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

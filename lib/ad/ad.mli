(** Reverse-mode automatic differentiation over tensors.

    Values are nodes in a dynamically built computation graph; rank-0
    tensors serve as scalars. Calling {!backward} on a scalar root
    accumulates gradients into every reachable node, which can then be
    read with {!grad}. Graphs are rebuilt on every forward pass, so
    gradients never leak between optimization steps.

    The module also exposes {!stop_grad} and {!custom}, the two hooks the
    ADEV estimators (see [Adev]) use to construct surrogate losses whose
    reverse-mode derivatives are unbiased gradient estimates. *)

type t
(** A differentiable tensor value. *)

(** {1 Leaves and constants} *)

val const : Tensor.t -> t
(** A leaf node. Gradients accumulate into leaves like any other node;
    whether a leaf is a "parameter" is the caller's concern. *)

val scalar : float -> t
(** Rank-0 leaf. *)

val value : t -> Tensor.t
(** The primal value. *)

val to_float : t -> float
(** Primal value of a rank-0 node. @raise Tensor.Shape_error otherwise. *)

val shape : t -> int array

val is_leaf : t -> bool
(** [true] when no gradient can flow out of this node (it was created by
    {!const}, {!scalar}, or {!stop_grad}). Used by [Value.to_float_rigid]
    to enforce the paper's R / R* smoothness discipline at runtime. *)

val id : t -> int
(** A unique, stable identifier for this node (graph-construction
    order). Used to key side tables — e.g. the provenance registry that
    lets smoothness errors name the sample site a value came from. *)

val node_count : unit -> int
(** Total number of AD nodes constructed so far (process-wide,
    monotone). Deltas between two reads measure a region's tape
    growth; the observability layer gauges this per training step. *)

(** {1 Live-tape accounting}

    Created-minus-retired node counts. Nodes retire when a
    {!checkpoint} barrier discards its segment, when a replayed
    segment's local sweep completes, and when {!backward} has consumed
    a tape — so with remat barriers the {e peak} stops scaling with
    the full tape length. All counters are process-wide and atomic. *)

val live_node_count : unit -> int
(** Nodes currently accounted live (created minus retired) since the
    last {!reset_live_stats}. *)

val peak_live_nodes : unit -> int
(** High-water mark of {!live_node_count} since the last
    {!reset_live_stats}. The [ad/peak_live_nodes] gauge in
    [ppvi profile] reports this per run. *)

val remat_replays : unit -> int
(** Process-wide count of checkpoint-segment replays performed by
    {!backward} (monotone). *)

val reset_live_stats : unit -> unit
(** Zero the live/peak counters. Only call from a quiescent point (no
    concurrent graph construction): the training driver resets between
    steps to measure per-step peaks. *)

(** {1 Gradient checkpointing} *)

val checkpoint : ?pool:bool -> (unit -> t) -> t
(** [checkpoint f] runs [f] once, discards the tape segment it built,
    and returns a barrier node carrying the segment's (copied) value;
    {!backward} rebuilds the segment by replaying [f] if and when a
    gradient reaches the barrier, then sweeps the replayed interior
    into the segment's boundary nodes locally. Gradients are bit-for-
    bit identical to the full-tape backward, provided [f] is
    {e replay-deterministic}: rebuilding must produce the same values
    (true for objective builders closing over a parameter frame and
    explicit PRNG keys; false for thunks reading ambient mutable
    state such as REINFORCE baseline cells — see docs/MEMORY.md).
    With [pool] (default true) the segment's transient tensors are
    drawn from a domain-local segment pool that is recycled at every
    barrier, so per-step heap allocation stops scaling with the
    number of segments. Nested checkpoints are supported (inner
    segments share the pool without resetting it). If [f] returns a
    node that predates the call, it is returned unchanged. *)

val set_replay_silencer : ((unit -> unit) -> unit) -> unit
(** Install the wrapper run around every segment replay. [Adev]
    registers [Obs.suppress] so a replay's re-executed user code does
    not double-report site timings and estimator statistics. *)

(** {1 Differentiation} *)

val backward : t -> unit
(** Seed the (scalar) root with gradient 1 and backpropagate. Safe to
    call once per graph. @raise Invalid_argument on a non-scalar root. *)

val grad : t -> Tensor.t
(** The gradient accumulated into this node by the last {!backward}
    through it; a zero tensor if none reached it. *)

val stop_grad : t -> t
(** A node with the same value through which no gradient flows. *)

val custom : value:Tensor.t -> parents:(t * (Tensor.t -> Tensor.t)) list -> t
(** [custom ~value ~parents] creates a node with an explicit
    vector-Jacobian product per parent: during backprop, each function
    receives the node's output gradient and returns the contribution to
    that parent (which must match the parent's shape). *)

(** {1 Arithmetic (broadcasting like [Tensor])} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t

val exp : t -> t
val log : t -> t
val sqrt : t -> t
val sigmoid : t -> t
val tanh : t -> t

val relu : t -> t
(** Subgradient 0 at the kink. As in the paper's discussion of static
    checks, using [relu] inside density computations is at the user's
    own risk. *)

val softplus : t -> t
val pow_scalar : t -> float -> t

val log1p_exp : t -> t
(** Alias of {!softplus}, for log-density code readability. *)

(** {1 Reductions and linear algebra} *)

val sum : t -> t
(** Sum of all elements, as a rank-0 node. *)

val mean : t -> t
val dot : t -> t -> t
val matmul : t -> t -> t
val transpose : t -> t

val logsumexp : t -> t
(** Stable logsumexp over all elements, rank-0. *)

val sum_axis : int -> t -> t
(** [sum_axis ax a] sums out dimension [ax] (removing it); the adjoint
    broadcasts the cotangent back along the reduced axis. *)

val logsumexp_axis : int -> t -> t
(** [logsumexp_axis ax a] is the stable logsumexp along dimension [ax]
    (removing it); the adjoint is the softmax-weighted broadcast of the
    cotangent. This is the one-axis-reduction form that batched
    K-particle objectives (e.g. IWELBO over the particle axis) use in
    place of [K] scalar terms. *)

val bernoulli_logits_scores : x:Tensor.t -> t -> t
(** [bernoulli_logits_scores ~x logits] is the fused per-row
    Bernoulli-with-logits log-pmf [sum_tail (x*l - softplus l)] over
    the broadcast of the operands (leading axis = rows), with the
    custom adjoint [g_i (x - sigmoid l)] into [logits] reusing the
    forward pass's sigmoid. One pass each way, versus the ~8 tensor
    temporaries of the compositional form — the hot likelihood kernel
    of the batched execution engine. [x] is the (0/1-valued) carrier
    of a discrete site and is not differentiated. *)

val log_softmax : t -> t
(** Elementwise [x - logsumexp x]. *)

(** {1 Structural} *)

val reshape : int array -> t -> t
val concat0 : t list -> t
val stack0 : t list -> t
val slice0 : t -> int -> t
val get : t -> int array -> t
(** Extract one element as a rank-0 node (gradient scatters back). *)

(** {1 Convenience} *)

val add_list : t list -> t
(** Sum of a non-empty list of same-shaped nodes ([scalar 0.] when
    empty). *)

module O : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
end

(** {1 Testing support} *)

val finite_diff_grad :
  ?eps:float -> (Tensor.t -> float) -> Tensor.t -> Tensor.t
(** Central finite differences of a scalar function, elementwise on its
    tensor input. Used by the test suite to validate every vjp. *)

(** The generative probabilistic language (lambda_Gen) and its compiled
    simulators and density evaluators.

    A program of type ['a Gen.t] interleaves functional code with
    [sample] and [observe] statements and denotes (i) an unnormalized
    measure over {!Trace.t} and (ii) a return-value function — the
    semantics of Section 3.2. The full-system constructs {!marginal} and
    {!normalize} (Section 7 / Appendix A) are included; their densities
    are estimated stochastically, which is why the compiled evaluators
    live in the [Adev] monad.

    {!simulate} is the paper's [sim] transformation (Theorem 4.4):
    running it yields the program's trace together with (the log of) its
    density, with every primitive sampled {e through its gradient
    estimation strategy} so that the result participates correctly in
    ADEV gradient estimation. {!log_density} is the paper's [density]
    transformation (Theorem 4.2): it pops values off a trace,
    accumulates log density, and yields negative infinity when the trace
    has leftover or missing addresses. *)

type 'a t

(** {1 Program constructors} *)

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t

val sample : 'a Dist.t -> string -> 'a t
(** [sample d addr] draws from [d], recording the value at address
    [addr]. *)

val observe : 'a Dist.t -> 'a -> unit t
(** [observe d v] conditions on the likelihood of [v] under [d]: it
    contributes a density factor and makes no random choices. *)

val plate : n:int -> (int -> 'a t) -> 'a array t
(** [plate ~n body]: [n] independent instances of [body 0 .. body
    (n-1)], as one program returning the array of their results.

    When every instance is the {e same single sample site} — one
    address, one batchable primitive (see {!Dist.batched}), identically
    distributed across indices — the plate is lowered to ONE rank-lifted
    batched site: a single tensor draw whose leading axis is the
    instance axis, a single vectorized log-density, and (for REINFORCE)
    a single axis-reduced surrogate. The trace then stores the stacked
    value under the plate's single address.

    Otherwise the plate runs sequentially: instance [i] executes under
    [Prng.fold_in key i] with every address suffixed ["[i]"]. The key
    discipline makes the two paths draw bit-identical values, so
    batchability is a pure performance property, never a semantic one.
    @raise Invalid_argument if [n < 1]. *)

(** {1 Inference-algorithm specifications (Appendix A.3)} *)

type packed = Packed : 'a t -> packed

type algorithm
(** Currently: self-normalized importance sampling with a programmable
    proposal and particle count. *)

val importance : ?particles:int -> (Trace.t -> packed) -> algorithm
(** [importance ~particles proposal]: the proposal receives the
    conditioning trace (the kept values for [marginal]; empty for
    unconditional use) and must be a generative program over the
    remaining addresses. Default 1 particle. *)

val importance_prior : ?particles:int -> packed -> algorithm
(** Importance sampling whose proposal ignores the conditioning trace. *)

val marginal : keep:string list -> 'b t -> algorithm -> Trace.t t
(** [marginal ~keep prog alg]: the distribution of [prog]'s trace
    projected onto the addresses [keep]; the auxiliary variables are
    marginalized by importance sampling with [alg]. Its return value is
    the projected trace. Densities are unbiased stochastic estimates;
    simulation uses conditional importance sampling for the reported
    weight (Appendix A.3). *)

val normalize : 'a t -> algorithm -> 'a t
(** [normalize prog alg]: the output distribution of sampling /
    importance resampling (SIR) targeting the normalized version of
    [prog], using [alg]'s proposal and particle count. The resampling
    choice uses [categorical_ENUM] so gradients flow through the
    particle weights. *)

(** {1 Compiled evaluators (the sim and density transformations)} *)

val simulate : 'a t -> ('a * Trace.t * Ad.t) Adev.t
(** Run the program, building its trace; the third component is the log
    density of the produced trace (a stochastic estimate when
    [marginal] / [normalize] are involved). [observe] statements
    additionally [score] the ambient measure, per the chi translation.
    @raise Trace.Duplicate_address if an address repeats. *)

val density_in : 'a t -> Trace.t -> (Ad.t * 'a * Trace.t) Adev.t
(** The xi helper: consume part of the trace, returning the accumulated
    log density, the return value, and the unconsumed remainder. *)

val log_density : 'a t -> Trace.t -> Ad.t Adev.t
(** Log density of exactly this trace: negative infinity when the
    program leaves a nonempty remainder. *)

val log_density_prefix : 'a t -> Trace.t -> Ad.t Adev.t
(** Like {!log_density} but ignores unconsumed addresses — convenient
    when scoring a sub-trace produced by a larger program. *)

(** {1 Execution plans}

    A plan is the residue of partially evaluating a program once (see
    [Compile] in [lib/compile]): the straight-line sequence of its
    sample/observe/plate sites with addresses interned to integer
    slots and plate lowering decisions pre-made. Plans are static
    analysis — they feed the PV501 staging verdicts, the shape tables
    of [Shape.of_plan], and [ppvi compile]. Every program runs on the
    interpreter ({!simulate}, {!log_density}). *)

module Plan : sig
  type kind = Sample_site | Observe_site | Plate_batched | Plate_seq

  type step = {
    st_kind : kind;
    st_addr : string;  (** Site address; the primitive name for observes. *)
    st_slot : int;  (** Trace slot index; [-1] when the step binds none. *)
    st_dist : string;  (** Primitive name at compile time. *)
    st_strategy : string;  (** Gradient strategy name at compile time. *)
    st_n : int;  (** Plate instance count; [1] otherwise. *)
    st_shape : int array option;  (** Planned value shape, when known. *)
    st_fused : bool;  (** Density evaluates through a fused kernel. *)
  }

  type t

  val make : id:string -> step list -> t
  (** Intern the trace-binding steps' addresses into slots (in step
      order; any caller-set [st_slot] is overwritten) and freeze the
      plan. @raise Invalid_argument on duplicate addresses — the slot
      table names each trace address once. *)

  val id : t -> string
  val steps : t -> step array
  val slots : t -> string array
  (** The slot table: index [i] holds the trace address interned to
      slot [i]. *)

  val seq_fallbacks : t -> int
  (** Number of plate sites the interpreter runs sequentially rather
      than as one batched site. *)
end

(** The plate-lowering decision {!simulate} would make per call,
    exposed so the compiler can pre-record it in a plan. *)
type plate_decision =
  | Plate_batchable of { addr : string; instance_shape : int array option }
  | Plate_sequential

val plate_decision : n:int -> (int -> 'a t) -> plate_decision

(** {1 Vectorized evaluators (batched particles)}

    Run [n] i.i.d. executions of a program as ONE pass: every sample
    site becomes a batched site whose drawn value carries the instance
    axis as its leading axis, and the accumulated log density is a
    per-instance [n]-vector. Binds receive batched values, so the
    program's deterministic parts must be rank-polymorphic (tensor ops
    broadcasting over the leading axis) — which the [Nn] layers and
    [Ad] primitives are. Row [i] of every draw is bit-for-bit the
    scalar draw instance [i] would make under [Prng.fold_in key i].

    Programs containing [marginal], [normalize], [plate], or primitives
    without batched payloads raise {!Dist.Not_batchable} (before any
    stateful baseline is touched); wrap calls in {!Adev.or_else} to
    fall back to a sequential interpretation under the same key. *)

val simulate_batched : n:int -> 'a t -> ('a * Trace.t * Ad.t) Adev.t
(** Vectorized {!simulate}: the trace stores stacked values under the
    program's (un-suffixed) addresses; the third component is the
    per-instance log-density vector of shape [[n]] (a scalar when the
    program is deterministic). [observe] scores the joint — the sum of
    the per-instance factors. *)

val density_in_batched : n:int -> 'a t -> Trace.t -> (Ad.t * 'a * Trace.t) Adev.t
(** Vectorized {!density_in}: consumes stacked values, returns the
    per-instance log-density vector, the batched return value, and the
    remainder. *)

val log_density_batched : n:int -> 'a t -> Trace.t -> Ad.t Adev.t
(** Vectorized {!log_density}: the [n]-vector of per-instance log
    densities, or a vector of negative infinities when the trace has a
    nonempty remainder. *)

(** {1 Detached execution (no gradient machinery)} *)

val sample_prior : 'a t -> Prng.key -> 'a * Trace.t * float
(** Forward-sample the program with all strategies ignored (every site
    just samples); returns value, trace, and primal log density.
    [observe] contributes to the log density but does not reweight.
    Used for data generation, plotting, and tests. *)

(** {1 Exact inference on finite programs} *)

val enumerate : 'a t -> ('a * Trace.t * float) list
(** All traces of a program whose sample sites all have finite supports,
    with their log weights (observe factors included). Used as an exact
    oracle in tests and for small-model exact inference.
    @raise Invalid_argument on continuous sites or full-system
    constructs. *)

val exact_log_marginal : 'a t -> float
(** Log of the total measure (the normalizing constant) of a finitely
    supported program, by exhaustive enumeration. *)

(** {1 Typing guards (the R / R star discipline at runtime)} *)

val rigid : Ad.t -> float
(** Extract a sample's primal value for non-smooth use (comparisons,
    branching). @raise Value.Smoothness_error when the value carries a
    gradient path — i.e. it came from a REPARAM-annotated primitive, the
    analogue of the paper's static rejection of [x < k] on smooth [x]. *)

(** {1 Program views}

    A first-order view of programs, used by the monolithic baseline
    engine in [lib/baseline] to implement its own trace-and-accumulate
    interpreters (the way Pyro's poutines walk a model). The full-system
    constructs are deliberately not exposed: monolithic engines do not
    support them, which is part of what Table 3 measures. *)

type _ view =
  | View_return : 'a -> 'a view
  | View_bind : 'b t * ('b -> 'a t) -> 'a view
  | View_sample : 'v Dist.t * string -> 'v view
  | View_observe : 'v Dist.t * 'v -> unit view
  | View_unsupported : string -> 'a view
      (** [marginal] / [normalize]: beyond first-order engines. *)

val view : 'a t -> 'a view

(** {1 Reflection}

    A complete first-order view of the program syntax, including the
    full-system constructs — what the static analyzer ([Check]) walks.
    Unlike {!view}, nothing is hidden: [marginal] / [normalize] expose
    their inner program, kept addresses, and inference algorithm so the
    analyzer can check address coverage across sub-inference
    boundaries. *)

type _ node =
  | Node_return : 'a -> 'a node
  | Node_bind : 'b t * ('b -> 'a t) -> 'a node
  | Node_sample : 'v Dist.t * string -> 'v node
  | Node_observe : 'v Dist.t * 'v -> unit node
  | Node_marginal : string list * 'b t * algorithm -> Trace.t node
  | Node_normalize : 'a t * algorithm -> 'a node
  | Node_plate : int * (int -> 'v t) -> 'v array node

val reflect : 'a t -> 'a node

val algorithm_proposal : algorithm -> Trace.t -> packed
(** The proposal program of an inference algorithm (receives the
    conditioning trace). *)

val algorithm_particles : algorithm -> int

(** {1 Syntax} *)

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

(** Dense float-array kernels behind [Tensor]'s public API.

    All kernels operate on row-major [float array] buffers and are
    deterministic by construction: work is split into fixed-size blocks
    (independent of the domain count), every block writes a disjoint
    output region, and per-element accumulation order never crosses a
    block boundary. Results are therefore bit-for-bit identical to the
    naive sequential loops, with any number of domains.

    Matrix kernels keep the reference semantics of the original naive
    implementations, including the skip of zero left-operand elements
    (which affects [nan]/[infinity] propagation), so every output that
    is not a NaN has the reference's bits on every input (a NaN output
    may carry another payload). *)

(** {1 Elementwise} *)

val map_into : (float -> float) -> float array -> float array -> unit
(** [map_into f src dst] sets [dst.(i) <- f src.(i)] for every index.
    [src] and [dst] must have equal length; [src == dst] is allowed. *)

val map2_into :
  (float -> float -> float) -> float array -> float array -> float array -> unit
(** [map2_into f a b dst] sets [dst.(i) <- f a.(i) b.(i)]. All three
    arrays must have equal length; [dst] may alias [a] or [b]. *)

val fill : float array -> float -> unit
val scale_into : float -> float array -> unit
val add_into : float array -> float array -> unit
(** [add_into dst src]: [dst.(i) <- dst.(i) +. src.(i)]. *)

val axpy_into : float -> float array -> float array -> unit
(** [axpy_into alpha x y]: [y.(i) <- y.(i) +. alpha *. x.(i)]. *)

(** {1 Specialized elementwise kernels}

    Monomorphic versions of the hot [map_into]/[map2_into] instances.
    Without flambda, calling an unknown [float -> float] closure boxes
    two floats per element; these kernels inline the exact float
    expression of the corresponding closure (bit-identical results, no
    allocation beyond the output). All follow the same block
    partitioning as [map_into], and below 32 768 elements run their loop
    directly, without [Parallel.run]. Unary kernels take [src dst]; binary
    [a b dst] (equal lengths); [*_const] take the scalar leg as a
    float; [row_*] take [a] ([rows*n]), [b] ([n]) and the row width. *)

val exp_into : float array -> float array -> unit
val log_into : float array -> float array -> unit
val sqrt_into : float array -> float array -> unit
val neg_into : float array -> float array -> unit
val scale_map_into : float -> float array -> float array -> unit
val add_scalar_into : float -> float array -> float array -> unit
val sigmoid_into : float array -> float array -> unit
val tanh_into : float array -> float array -> unit
val relu_into : float array -> float array -> unit
val softplus_into : float array -> float array -> unit
val recip_into : float array -> float array -> unit
(** [1. /. x], the [log] vjp. *)

val sigmoid_deriv_into : float array -> float array -> unit
(** [s *. (1. -. s)] over sigmoid outputs, the [sigmoid] vjp. *)

val tanh_deriv_into : float array -> float array -> unit
(** [1. -. s *. s] over tanh outputs, the [tanh] vjp. *)

val relu_deriv_into : float array -> float array -> unit
(** [if x > 0. then 1. else 0.] over relu inputs, the [relu] vjp. *)

val add2_into : float array -> float array -> float array -> unit
val sub2_into : float array -> float array -> float array -> unit
val mul2_into : float array -> float array -> float array -> unit
val div2_into : float array -> float array -> float array -> unit
val add_const_into : float array -> float -> float array -> unit
val const_add_into : float -> float array -> float array -> unit
val sub_const_into : float array -> float -> float array -> unit
val const_sub_into : float -> float array -> float array -> unit
val mul_const_into : float array -> float -> float array -> unit
val const_mul_into : float -> float array -> float array -> unit
val div_const_into : float array -> float -> float array -> unit
val const_div_into : float -> float array -> float array -> unit
val row_add_into : float array -> float array -> int -> float array -> unit
val row_sub_into : float array -> float array -> int -> float array -> unit
val row_mul_into : float array -> float array -> int -> float array -> unit
val row_div_into : float array -> float array -> int -> float array -> unit

(** {1 Broadcast map} *)

val broadcast_map2_into :
  (float -> float -> float) ->
  float array -> int array ->
  float array -> int array ->
  int array -> float array -> unit
(** [broadcast_map2_into f a sa b sb out_shape dst] computes the
    NumPy-style broadcast binary map: [sa]/[sb] are broadcast strides of
    [a]/[b] aligned to [out_shape] (0 on broadcast dimensions), [dst]
    has [out_shape]'s size. *)

val broadcast_copy_into :
  float array -> int array -> int array -> float array -> unit
(** [broadcast_copy_into src sst out_shape dst] materializes [src]
    broadcast to [out_shape] into [dst] without touching a second
    operand. *)

(** {1 Matrix products}

    [matmul], [matmul_t] and [t_matmul] run on one of two C bodies with
    the same bits: every output element that is not a NaN is equal to
    the naive reference's, signed zeros and infinities included (a NaN
    stays a NaN, its payload may differ). The body is chosen once per
    process from the CPU's feature bits. *)

type body =
  | Portable  (** The saxpy loops, on every target. *)
  | Avx2  (** Register tiles, on x86-64 CPUs with AVX2. *)

val active : body
(** The body this process runs: [Avx2] when the CPU has AVX2. *)

val bodies : body list
(** The bodies this CPU can run: [Portable], then [Avx2] if it is
    available. *)

val body_name : body -> string
(** ["portable"] or ["avx2"]. *)

val isa : unit -> string
(** [body_name active], for version and benchmark reports. *)

val matmul :
  m:int -> k:int -> n:int -> float array -> float array -> float array -> unit
(** [matmul ~m ~k ~n a b c]: [c] ([m*n], zeroed by the caller) gets
    [A (m x k) * B (k x n)], cache-blocked over column tiles and
    parallelized over row blocks. *)

val matmul_t :
  m:int -> k:int -> n:int -> float array -> float array -> float array -> unit
(** [matmul_t ~m ~k ~n a b c]: [c] ([m*n]) gets [A (m x k) * B^T] where
    [B] is [n x k] — no transpose is materialized. *)

val t_matmul :
  m:int -> k:int -> n:int -> float array -> float array -> float array -> unit
(** [t_matmul ~m ~k ~n a b c]: [c] ([k*n], zeroed by the caller) gets
    [A^T * B] where [A] is [m x k] and [B] is [m x n]. *)

val matmul_with :
  body -> m:int -> k:int -> n:int ->
  float array -> float array -> float array -> unit

val matmul_t_with :
  body -> m:int -> k:int -> n:int ->
  float array -> float array -> float array -> unit

val t_matmul_with :
  body -> m:int -> k:int -> n:int ->
  float array -> float array -> float array -> unit
(** The three products on a given body, for tests that compare
    bodies. The body must be one of {!bodies}. *)

val matvec : m:int -> k:int -> float array -> float array -> float array -> unit
(** [matvec ~m ~k a x y]: [y] ([m]) gets [A (m x k) * x (k)]. *)

val t_matvec :
  m:int -> k:int -> float array -> float array -> float array -> unit
(** [t_matvec ~m ~k a x y]: [y] ([k], zeroed by the caller) gets
    [A^T * x] where [A] is [m x k] and [x] is [m]. *)

val vecmat : k:int -> n:int -> float array -> float array -> float array -> unit
(** [vecmat ~k ~n x b y]: [y] ([n], zeroed by the caller) gets
    [x (k) * B (k x n)]. *)

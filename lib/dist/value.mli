(** Heterogeneous values stored at trace addresses.

    The paper's type system distinguishes smooth reals (R) from reals
    that may be used non-smoothly (R star). In this embedding, a [Real]
    carries an AD node: samples from REPARAM-annotated primitives arrive
    as non-leaf nodes (gradients flow through them, so they must be used
    smoothly), while samples from REINFORCE/MVD primitives arrive as
    detached leaves (the R* discipline). {!to_float_rigid} is the runtime
    analogue of the [<: R* x R* -> B] typing rule: it refuses values that
    carry a gradient path. *)

type t =
  | Real of Ad.t  (** A (possibly tensor-valued) differentiable value. *)
  | Bool of bool
  | Int of int

type smoothness_info = {
  reason : string;  (** What went wrong. *)
  address : string option;
      (** The trace address the offending value was sampled at, when the
          provenance registry knows it. *)
  strategy : string option;
      (** The gradient estimation strategy of the originating primitive
          (e.g. "REPARAM"), when known. *)
}
(** Structured payload of {!Smoothness_error}: runtime smoothness
    failures name the same site the static analyzer ([Check]) would
    flag. *)

exception Type_error of string
(** Raised when a value is used at the wrong type. *)

exception Smoothness_error of smoothness_info
(** Raised when a smooth ([R]-typed) value is used non-smoothly. *)

val smoothness_message : smoothness_info -> string
(** Human-readable rendering, including the originating address and
    strategy when known. *)

(** {1 Provenance registry}

    A bounded side table from AD node ids to originating sample sites.
    [Adev.sample] registers every smooth (REPARAM) draw with its
    strategy; [Gen.simulate] re-registers it with the trace address. The
    table has a fixed number of slots, indexed by id, and a registration
    overwrites its slot, so lookups for old ids may miss (errors are
    then un-attributed). Registering allocates nothing. *)

val register_smooth_origin :
  Ad.t -> ?address:string -> strategy:string -> unit -> unit

val register_origin_value :
  t -> ?address:string -> strategy:string -> unit -> unit
(** Register a trace value: only [Real] non-leaf nodes (actual smooth
    samples) are recorded; everything else is a no-op. *)

val smooth_origin : Ad.t -> (string option * string) option
(** [(address, strategy)] of a registered smooth sample, if known. *)

val real : float -> t
val tensor : Tensor.t -> t

val to_ad : t -> Ad.t
(** @raise Type_error on [Bool] or [Int]. *)

val to_float : t -> float
(** Primal scalar, regardless of smoothness. *)

val to_bool : t -> bool
val to_int : t -> int

val to_float_rigid : t -> float
(** The primal value of a [Real], but only if it carries no gradient
    path (it is a leaf of the AD graph) — the runtime analogue of
    requiring type R*.
    @raise Smoothness_error on a non-leaf (smooth) value, with the
    originating address/strategy when the provenance registry knows
    them. *)

val equal_primal : t -> t -> bool
(** Structural equality on primal content (no gradient comparison). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

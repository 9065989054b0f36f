type 'a t = Prng.key -> ('a -> Ad.t) -> Ad.t

let return x _key k = k x

let bind m f key k =
  let k1, k2 = Prng.split key in
  m k1 (fun a -> f a k2 k)

let map f m key k = m key (fun a -> k (f a))

(* The DiCE / magic-box surrogate: value y, gradient dy + (y - b) dlogp. *)
let score_function_surrogate ?(baseline = 0.) y lp =
  let open Ad.O in
  y
  + ((Ad.stop_grad y - Ad.scalar baseline) * (lp - Ad.stop_grad lp))

(* The surrogate a REINFORCE site returns. When [lp] is a leaf, the
   score term [(y - b) (lp - lp)] has no path to any parameter, so it
   adds nothing to any gradient (a score-function term vanishes where
   the density has no parameters); it is dropped when, computed in
   floats, it would also leave every bit of [y]'s value as it is. A
   NaN, an infinite value or -0.0 in [y], or a non-finite [lp], keeps
   the full term. Constant-density sites (the uniform angle of the
   cone's guide and reverse kernel) take this path. *)
let reinforce_surrogate ?(baseline = 0.) y lp =
  let lv = Ad.value lp and yv = Ad.value y in
  let term_vanishes () =
    let l = Tensor.to_scalar lv in
    let rec go i =
      i >= Tensor.size yv
      ||
      let yi = Tensor.get_flat yv i in
      let bits = Int64.bits_of_float yi in
      Float.is_finite yi
      && (not (Int64.equal bits Int64.min_int))
      && Int64.equal
           (Int64.bits_of_float (yi +. ((yi -. baseline) *. (l -. l))))
           bits
      && go (i + 1)
    in
    go 0
  in
  if Ad.is_leaf lp && Tensor.rank lv = 0 && term_vanishes () then y
  else score_function_surrogate ~baseline y lp

exception Unshardable_site of string

(* Domain-local site context. [detached]: MVD couplings evaluate the
   continuation for its primal value only. While doing so, downstream
   sample sites must not spin up their own estimator machinery (ENUM
   branch products, nested couplings, score terms): a plain detached
   sample preserves the coupling's expectation and keeps its cost
   linear instead of exponential in the number of downstream sites.
   [sharded]: the site runs inside one shard of a sharded training
   step, where a REINFORCE-baseline cell would be shared by shards
   running concurrently. Both are per domain, because shard blocks run
   on several domains at once. *)
type ctx = { mutable detached : bool; mutable sharded : bool }

let ctx = Domain.DLS.new_key (fun () -> { detached = false; sharded = false })

let replay_detached f =
  let c = Domain.DLS.get ctx in
  let saved = c.detached in
  c.detached <- true;
  match Ad.primal f with
  | r ->
    c.detached <- saved;
    r
  | exception e ->
    c.detached <- saved;
    raise e

let in_shard f =
  let c = Domain.DLS.get ctx in
  let saved = c.sharded in
  c.sharded <- true;
  match f () with
  | r ->
    c.sharded <- saved;
    r
  | exception e ->
    c.sharded <- saved;
    raise e

(* Observability plumbing. [addr] is the trace address a [Gen]
   interpreter attached via [sample_at] ("" for anonymous sites, shown
   as "<dist-name>"). The hooks only read primal floats and the wall
   clock — they never consume PRNG keys or touch AD state, so enabling
   them cannot change a seeded run (the bit-identity property in
   test/test_obs.ml). The statistic fed per site is the estimator's
   {e score coefficient}: the stochastic scalar multiplying
   [grad log p] in the surrogate — [primal y - baseline] for the score
   function estimators, each coupling's [weight * (y+ - y-)] for MVD,
   and 0 for the pathwise/exact strategies (REPARAM, ENUM), whose
   gradient carries no score-function noise. *)

let site_address addr (d : 'a Dist.t) =
  if addr = "" then "<" ^ d.Dist.name ^ ">" else addr

let record_site addr (d : 'a Dist.t) coeff =
  Obs.estimator ~address:(site_address addr d)
    ~strategy:(Dist.strategy_name d.Dist.strategy) coeff

let sample_at (addr : string) (d : 'a Dist.t) : 'a t =
 fun key k ->
  let c = Domain.DLS.get ctx in
  if c.detached then k (d.sample key)
  else
  match d.strategy with
  | Dist.Reparam -> begin
    match d.reparam with
    | Some r ->
      let x =
        if Obs.live () then begin
          let t0 = Obs.start () in
          let x = r key in
          Obs.stop Obs.Simulate d.name t0;
          record_site addr d 0.;
          x
        end
        else r key
      in
      (* Record where this smooth sample came from, so a later
         non-smooth use can report the offending strategy (and, once
         [Gen.simulate] adds it, the trace address). *)
      Value.register_origin_value (d.inject x)
        ~strategy:(Dist.strategy_name d.strategy) ();
      k x
    | None ->
      invalid_arg
        (Printf.sprintf "Adev.sample: %s has no reparameterized sampler"
           d.name)
  end
  | Dist.Reinforce ->
    let x =
      if Obs.live () then begin
        let t0 = Obs.start () in
        let x = d.sample key in
        Obs.stop Obs.Simulate d.name t0;
        x
      end
      else d.sample key
    in
    let y = k x in
    if Obs.live () then record_site addr d (Tensor.to_scalar (Ad.value y));
    reinforce_surrogate y (d.log_density x)
  | Dist.Reinforce_baseline _ when c.sharded ->
    raise (Unshardable_site (site_address addr d))
  | Dist.Reinforce_baseline cell ->
    let x =
      if Obs.live () then begin
        let t0 = Obs.start () in
        let x = d.sample key in
        Obs.stop Obs.Simulate d.name t0;
        x
      end
      else d.sample key
    in
    let y = k x in
    let b = Baseline.value cell in
    Baseline.update cell (Tensor.to_scalar (Ad.value y));
    if Obs.live () then
      record_site addr d (Tensor.to_scalar (Ad.value y) -. b);
    reinforce_surrogate ~baseline:b y (d.log_density x)
  | Dist.Enum -> begin
    match d.support with
    | Some support ->
      let terms =
        List.map
          (fun v -> Ad.mul (Ad.exp (d.log_density v)) (k v))
          support
      in
      if Obs.live () then record_site addr d 0.;
      Ad.add_list terms
    | None ->
      invalid_arg
        (Printf.sprintf "Adev.sample: %s has no finite support for ENUM"
           d.name)
  end
  | Dist.Mvd -> begin
    match d.mvd with
    | Some mvd ->
      let x, couplings = mvd key in
      let y = k x in
      let coupling_term (c : 'a Dist.coupling) =
        let primal v = Tensor.to_scalar (Ad.value (replay_detached (fun () -> k v))) in
        let y_plus = primal c.plus in
        let y_minus = primal c.minus in
        if Obs.live () then
          record_site addr d (c.weight *. (y_plus -. y_minus));
        Ad.scale
          (c.weight *. (y_plus -. y_minus))
          (Ad.sub c.param (Ad.stop_grad c.param))
      in
      Ad.add_list (y :: List.map coupling_term couplings)
    | None ->
      invalid_arg
        (Printf.sprintf "Adev.sample: %s has no MVD couplings" d.name)
  end

let sample d = sample_at "" d

(* Tail-recursive accumulator building the exact nested-bind term the
   historical recursive formulation built — same key-split stream, same
   element order — without O(n) stack frames at construction time. *)
let replicate n m =
  let rec go acc j =
    if j <= 0 then acc
    else go (bind m (fun x -> bind acc (fun rest -> return (x :: rest)))) (j - 1)
  in
  go (return []) n

(* Batched sites: n i.i.d. instances of one primitive as a single
   rank-lifted draw. REPARAM lifts the pathwise sampler; REINFORCE
   becomes one axis-reduced DiCE surrogate instead of n scalar terms.
   When the continuation's result is instance-aligned (same shape as
   the per-instance log-density vector), each instance couples to its
   own log density — elementwise DiCE, the lower-variance estimator;
   otherwise the result couples to the joint log density (unbiased by
   independence: cross terms vanish in expectation). *)
let sample_batched_at addr ~n (d : 'a Dist.t) : 'a t =
 fun key k ->
  let b =
    match d.Dist.batched with
    | Some b -> b
    | None ->
      raise (Dist.Not_batchable (d.Dist.name ^ ": no batched execution payload"))
  in
  if (Domain.DLS.get ctx).detached then k (b.Dist.sample_n key n)
  else
    match d.Dist.strategy with
    | Dist.Reparam -> begin
      match b.Dist.reparam_n with
      | Some r ->
        let x =
          if Obs.live () then begin
            let t0 = Obs.start () in
            let x = r key n in
            Obs.stop Obs.Simulate d.Dist.name t0;
            record_site addr d 0.;
            Obs.hist "adev/batched_site_n" (float_of_int n);
            x
          end
          else r key n
        in
        Value.register_origin_value (d.Dist.inject x)
          ~strategy:(Dist.strategy_name d.Dist.strategy) ();
        k x
      | None ->
        raise
          (Dist.Not_batchable
             (d.Dist.name ^ ": no batched reparameterized sampler"))
    end
    | Dist.Reinforce ->
      let x =
        if Obs.live () then begin
          let t0 = Obs.start () in
          let x = b.Dist.sample_n key n in
          Obs.stop Obs.Simulate d.Dist.name t0;
          Obs.hist "adev/batched_site_n" (float_of_int n);
          x
        end
        else b.Dist.sample_n key n
      in
      let y = k x in
      let lp = b.Dist.log_density_n x in
      if Obs.live () then record_site addr d (Tensor.mean (Ad.value y));
      if Ad.shape y = Ad.shape lp then score_function_surrogate y lp
      else score_function_surrogate y (Ad.sum lp)
    | s ->
      (* ENUM/MVD products and stateful baselines cannot be collapsed
         into one rank-lifted site; a failed attempt must not touch
         baseline cells, so refuse before sampling. *)
      raise
        (Dist.Not_batchable
           (Printf.sprintf "%s sites cannot be batched" (Dist.strategy_name s)))

let sample_batched ~n d = sample_batched_at "" ~n d

let replicate_batched n d = sample_batched ~n d

(* Key plumbing for interpreters that need explicit control over the
   stream (the plate lowering aligns batched rows with sequential
   instances via [Prng.fold_in]). *)
let keyed f key k = f key key k
let with_key key m _ambient k = m key k

let batch_fallback_exn = function
  | Dist.Not_batchable _ | Tensor.Shape_error _ | Value.Smoothness_error _ ->
    true
  | _ -> false

let or_else m fallback key k =
  try m key k with e when batch_fallback_exn e -> fallback key k

(* Defer term construction into the run so that interpreters that
   refuse eagerly (e.g. the vectorized evaluators probing batched
   payloads) raise where [or_else] can catch them. *)
let delay f key k = (f ()) key k

let score w _key k = Ad.mul w (k ())
let score_log lw key k = score (Ad.exp lw) key k

let run m key k = m key k
let expectation m key = m key (fun x -> x)

(* Register the replay silencer: a checkpoint-segment replay re-runs
   estimator code whose Obs hooks (site timers, Welford accumulators)
   must not double-report. Suppression is bit-transparent by the
   instrumentation contract. *)
let () = Ad.set_replay_silencer (fun f -> Obs.suppress f)

let expectation_mean ?(remat = false) ~samples m key =
  if samples < 1 then invalid_arg "Adev.expectation_mean: samples < 1";
  let keys = Prng.split_many key samples in
  (* With [remat], each sample's surrogate sits behind its own
     checkpoint barrier: the per-sample tape segment is discarded
     after construction and rematerialized during backward (the
     explicit key makes the thunk replay-deterministic), so the peak
     live tape holds one sample's segment instead of all of them. *)
  let term ki =
    if remat then Ad.checkpoint (fun () -> expectation m ki)
    else expectation m ki
  in
  let terms = Array.to_list (Array.map term keys) in
  Ad.scale (1. /. float_of_int samples) (Ad.add_list terms)

let estimate ?(samples = 1) m key =
  let keys = Prng.split_many key samples in
  let total =
    Ad.primal (fun () ->
        Array.fold_left
          (fun acc ki -> acc +. Tensor.to_scalar (Ad.value (expectation m ki)))
          0. keys)
  in
  total /. float_of_int samples

let grad ~params ?(samples = 1) m key =
  let surrogate = expectation_mean ~samples m key in
  Ad.backward surrogate;
  let v = Tensor.to_scalar (Ad.value surrogate) in
  (v, List.map (fun (name, p) -> (name, Ad.grad p)) params)

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
end

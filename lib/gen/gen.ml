type _ t =
  | Return : 'a -> 'a t
  | Bind : 'b t * ('b -> 'a t) -> 'a t
  | Sample : 'a Dist.t * string -> 'a t
  | Observe : 'b Dist.t * 'b -> unit t
  | Marginal : string list * 'b t * algorithm -> Trace.t t
  | Normalize : 'a t * algorithm -> 'a t
  | Plate : int * (int -> 'b t) -> 'b array t

and packed = Packed : 'a t -> packed
and algorithm = { proposal : Trace.t -> packed; particles : int }

let return x = Return x
let bind m f = Bind (m, f)
let map f m = Bind (m, fun x -> Return (f x))
let sample d name = Sample (d, name)
let observe d v = Observe (d, v)

let plate ~n body =
  if n < 1 then invalid_arg "Gen.plate: n < 1";
  Plate (n, body)

let importance ?(particles = 1) proposal =
  if particles < 1 then invalid_arg "Gen.importance: particles < 1";
  { proposal; particles }

let importance_prior ?particles packed =
  importance ?particles (fun _ -> packed)

let marginal ~keep prog alg = Marginal (keep, prog, alg)
let normalize prog alg = Normalize (prog, alg)

let primal a = Tensor.to_scalar (Ad.value a)
let neg_inf = Ad.scalar Float.neg_infinity
let rigid a = Value.to_float_rigid (Value.Real a)

(* Observability: time density-leaf evaluations under the primitive's
   name. Plain calls (no closures), so the disabled path allocates
   nothing beyond what the untimed code did. *)
let timed_density (d : 'v Dist.t) x =
  if Obs.live () then begin
    let t0 = Obs.start () in
    let lw = d.Dist.log_density x in
    Obs.stop Obs.Density d.Dist.name t0;
    lw
  end
  else d.Dist.log_density x

let timed_density_n (b : 'v Dist.batched) name x =
  if Obs.live () then begin
    let t0 = Obs.start () in
    let lw = b.Dist.log_density_n x in
    Obs.stop Obs.Density name t0;
    lw
  end
  else b.Dist.log_density_n x

(* Run an Adev computation [n] times, collecting the results (each run
   gets an independent key via the monad's splitting). *)
let rec collect n f =
  let open Adev.Syntax in
  if n <= 0 then Adev.return []
  else
    let* x = f () in
    let* rest = collect (n - 1) f in
    Adev.return (x :: rest)

(* Average of weights in log space: log ((1/n) sum_i exp lw_i), with a
   uniform-probability fallback when every weight is zero. *)
let log_mean_exp logws =
  let n = List.length logws in
  Ad.O.(Ad.logsumexp (Ad.stack0 logws) - Ad.scalar (Float.log (float_of_int n)))

(* ------------------------------------------------------------------ *)
(* Plate lowering *)

let plate_slot addr i = Printf.sprintf "%s[%d]" addr i

type 'a plate_plan = {
  pl_dist : 'a Dist.t;
  pl_batched : 'a Dist.batched;
  pl_addr : string;
}

let plate_probe_key = Prng.key 0x9e3779b9

(* A plate body is lowered to ONE batched site when every instance is
   the same single sample site: one address, a batchable primitive
   whose strategy can be rank-lifted (REPARAM with a batched
   reparameterized sampler, or plain REINFORCE), and identically
   distributed across instances. The i.i.d. spot-check draws each
   instance's primitive at a fixed probe key and compares both the
   draw and its log density: identical parameters give identical
   deterministic draws, so any index-dependence in the body shows up
   as a mismatch and the plate falls back to the sequential path. *)
let plate_plan : type a. int -> (int -> a t) -> a plate_plan option =
 fun n body ->
  match body 0 with
  | Sample (d0, addr0) -> begin
    match d0.Dist.batched with
    | Some b ->
      let strategy_ok =
        match d0.Dist.strategy with
        | Dist.Reparam -> b.Dist.reparam_n <> None
        | Dist.Reinforce -> true
        | _ -> false
      in
      if not strategy_ok then None
      else begin
        let x0 = d0.Dist.sample plate_probe_key in
        let v0 = d0.Dist.inject x0 in
        let lp0 = primal (d0.Dist.log_density x0) in
        let same_dist (di : a Dist.t) =
          String.equal di.Dist.name d0.Dist.name
          &&
          let xi = di.Dist.sample plate_probe_key in
          Value.equal_primal (di.Dist.inject xi) v0
          && Float.equal (primal (di.Dist.log_density xi)) lp0
        in
        let rec iid i =
          i >= n
          ||
          match body i with
          | Sample (di, addri) ->
            String.equal addri addr0 && same_dist di && iid (i + 1)
          | _ -> false
        in
        if iid 1 then Some { pl_dist = d0; pl_batched = b; pl_addr = addr0 }
        else None
      end
    | None -> None
  end
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Execution plans (static analysis)

   A [Plan.t] is the residue of partially evaluating a program once:
   the straight-line sequence of its sample/observe/plate sites with
   addresses interned to integer slots, plate lowering decisions
   pre-made, and batch shapes recorded. Plans are built by
   [lib/compile] and read by the PV501 verdicts, the shape tables and
   [ppvi compile]; programs always run on the interpreter below. *)

module Plan = struct
  type kind = Sample_site | Observe_site | Plate_batched | Plate_seq

  type step = {
    st_kind : kind;
    st_addr : string;  (* site address; the primitive name for observes *)
    st_slot : int;  (* trace slot index; -1 when the step binds none *)
    st_dist : string;
    st_strategy : string;
    st_n : int;  (* plate instance count; 1 otherwise *)
    st_shape : int array option;  (* planned value shape, when known *)
    st_fused : bool;  (* density evaluates through a fused kernel *)
  }

  type t = {
    p_id : string;
    p_steps : step array;
    p_slots : string array;  (* slot -> interned trace address *)
    p_seq_fallbacks : int;
  }

  (* [make ~id steps] interns the trace-binding steps' addresses into
     slots (in step order, overwriting any [st_slot] the caller set) and
     freezes the plan. Addresses must be distinct: the slot table names
     each trace address once. *)
  let make ~id steps =
    let slots = ref [] and nslots = ref 0 and fallbacks = ref 0 in
    let steps =
      List.map
        (fun s ->
          match s.st_kind with
          | Sample_site | Plate_batched ->
            let slot = !nslots in
            incr nslots;
            slots := s.st_addr :: !slots;
            { s with st_slot = slot }
          | Plate_seq ->
            incr fallbacks;
            { s with st_slot = -1 }
          | Observe_site -> { s with st_slot = -1 })
        steps
    in
    let slots = Array.of_list (List.rev !slots) in
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun a ->
        if Hashtbl.mem seen a then
          invalid_arg (Printf.sprintf "Gen.Plan.make: duplicate address %S" a);
        Hashtbl.add seen a ())
      slots;
    { p_id = id;
      p_steps = Array.of_list steps;
      p_slots = slots;
      p_seq_fallbacks = !fallbacks }

  let id p = p.p_id
  let steps p = p.p_steps
  let slots p = p.p_slots
  let seq_fallbacks p = p.p_seq_fallbacks
end

(* sim (Fig. 5, bottom): run the program through each primitive's
   strategy, building the trace and its log density. *)
let rec simulate : type a. a t -> (a * Trace.t * Ad.t) Adev.t =
 fun prog ->
  let open Adev.Syntax in
  match prog with
  | Return x -> Adev.return (x, Trace.empty, Ad.scalar 0.)
  | Bind (m, f) ->
    let* x, u1, w1 = simulate m in
    let* y, u2, w2 = simulate (f x) in
    Adev.return (y, Trace.union_disjoint u1 u2, Ad.add w1 w2)
  | Sample (d, name) ->
    let* x = Adev.sample_at name d in
    let v = d.Dist.inject x in
    (* Attach the trace address to the provenance entry [Adev.sample]
       made, so smoothness errors can name the sample site. *)
    Value.register_origin_value v
      ~address:name ~strategy:(Dist.strategy_name d.Dist.strategy) ();
    Adev.return (x, Trace.singleton name v, timed_density d x)
  | Observe (d, v) ->
    let lw = timed_density d v in
    let* () = Adev.score_log lw in
    Adev.return ((), Trace.empty, lw)
  | Marginal (keep, inner, alg) -> simulate_marginal keep inner alg
  | Normalize (inner, alg) -> simulate_normalize inner alg
  | Plate (n, body) -> simulate_plate n body

(* density's xi helper (Fig. 5, top): consume trace values, accumulate
   log density, return the remainder. *)
and density_in : type a. a t -> Trace.t -> (Ad.t * a * Trace.t) Adev.t =
 fun prog u ->
  let open Adev.Syntax in
  match prog with
  | Return x -> Adev.return (Ad.scalar 0., x, u)
  | Bind (m, f) ->
    let* w1, x, u1 = density_in m u in
    let* w2, y, u2 = density_in (f x) u1 in
    Adev.return (Ad.add w1 w2, y, u2)
  | Sample (d, name) -> begin
    match Trace.find_opt name u with
    | Some v -> begin
      match d.Dist.project v with
      | Some x -> Adev.return (timed_density d x, x, Trace.remove name u)
      | None -> Adev.return (neg_inf, d.Dist.default, Trace.remove name u)
    end
    | None -> Adev.return (neg_inf, d.Dist.default, u)
  end
  | Observe (d, v) -> Adev.return (timed_density d v, (), u)
  | Marginal (keep, inner, alg) -> density_marginal keep inner alg u
  | Normalize (inner, alg) -> density_normalize inner alg u
  | Plate (n, body) -> density_plate n body u

and log_density : type a. a t -> Trace.t -> Ad.t Adev.t =
 fun prog u ->
  let open Adev.Syntax in
  let* w, _, remainder = density_in prog u in
  if Trace.is_empty remainder then Adev.return w else Adev.return neg_inf

and log_density_prefix : type a. a t -> Trace.t -> Ad.t Adev.t =
 fun prog u ->
  let open Adev.Syntax in
  let* w, _, _ = density_in prog u in
  Adev.return w

(* Unbiased importance-sampling estimate of the log marginal density of
   [kept] under [inner]'s trace marginal. When [actual_aux] is given,
   conditional importance sampling: the actual auxiliary trace stands in
   for one particle (Appendix A.3). *)
and marginal_log_density_estimate :
    type b.
    b t -> algorithm -> kept:Trace.t -> actual_aux:Trace.t option ->
    Ad.t Adev.t =
 fun inner alg ~kept ~actual_aux ->
  let open Adev.Syntax in
  let (Packed proposal) = alg.proposal kept in
  let fresh_particle () =
    let* _, aux, logq = simulate proposal in
    let* logp = log_density inner (Trace.union_disjoint kept aux) in
    Adev.return Ad.O.(logp - logq)
  in
  let* particles =
    match actual_aux with
    | None -> collect alg.particles fresh_particle
    | Some aux ->
      let* logq = log_density proposal aux in
      let* logp = log_density inner (Trace.union_disjoint kept aux) in
      let actual = Ad.O.(logp - logq) in
      let* rest = collect (alg.particles - 1) fresh_particle in
      Adev.return (actual :: rest)
  in
  Adev.return (log_mean_exp particles)

and simulate_marginal :
    type b. string list -> b t -> algorithm -> (Trace.t * Trace.t * Ad.t) Adev.t
    =
 fun keep inner alg ->
  let open Adev.Syntax in
  let* _, t, _ = simulate inner in
  List.iter
    (fun name ->
      if not (Trace.mem name t) then
        invalid_arg
          (Printf.sprintf "Gen.marginal: kept address %S was not sampled" name))
    keep;
  let kept = Trace.restrict keep t in
  let aux = Trace.without keep t in
  let* logp = marginal_log_density_estimate inner alg ~kept ~actual_aux:(Some aux) in
  Adev.return (kept, kept, logp)

and density_marginal :
    type b.
    string list -> b t -> algorithm -> Trace.t ->
    (Ad.t * Trace.t * Trace.t) Adev.t =
 fun keep inner alg u ->
  let open Adev.Syntax in
  if List.exists (fun name -> not (Trace.mem name u)) keep then
    Adev.return (neg_inf, Trace.restrict keep u, Trace.without keep u)
  else begin
    let kept = Trace.restrict keep u in
    let remainder = Trace.without keep u in
    let* logp = marginal_log_density_estimate inner alg ~kept ~actual_aux:None in
    Adev.return (logp, kept, remainder)
  end

and simulate_normalize : type a. a t -> algorithm -> (a * Trace.t * Ad.t) Adev.t
    =
 fun inner alg ->
  let open Adev.Syntax in
  let (Packed proposal) = alg.proposal Trace.empty in
  let* particles =
    collect alg.particles (fun () ->
        let* _, t, logq = simulate proposal in
        let* logp, value, remainder = density_in inner t in
        let logp = if Trace.is_empty remainder then logp else neg_inf in
        Adev.return (t, value, logp, Ad.O.(logp - logq)))
  in
  let logws = List.map (fun (_, _, _, lw) -> lw) particles in
  let log_zhat = log_mean_exp logws in
  let logw_vec = Ad.stack0 logws in
  let probs =
    if Float.is_finite (primal log_zhat) then Ad.exp (Ad.log_softmax logw_vec)
    else begin
      (* Every particle has zero weight: resample uniformly. *)
      let n = List.length particles in
      Ad.const (Tensor.full [| n |] (1. /. float_of_int n))
    end
  in
  let* j = Adev.sample (Dist.categorical_enum probs) in
  let t_j, value_j, logp_j, _ = List.nth particles j in
  Adev.return (value_j, t_j, Ad.O.(logp_j - log_zhat))

and density_normalize :
    type a. a t -> algorithm -> Trace.t -> (Ad.t * a * Trace.t) Adev.t =
 fun inner alg u ->
  let open Adev.Syntax in
  let (Packed proposal) = alg.proposal Trace.empty in
  let* logp_u, value, remainder = density_in inner u in
  let consumed = Trace.diff u remainder in
  let* logq_u = log_density proposal consumed in
  let logw_actual = Ad.O.(logp_u - logq_u) in
  let* others =
    collect (alg.particles - 1) (fun () ->
        let* _, t, logq = simulate proposal in
        let* logp = log_density inner t in
        Adev.return Ad.O.(logp - logq))
  in
  let log_zhat = log_mean_exp (logw_actual :: others) in
  Adev.return (Ad.O.(logp_u - log_zhat), value, remainder)

(* Plate: one batched site when the body is batchable (the trace then
   stores the stacked value under the single plate address), otherwise
   a sequential loop whose instance [i] runs under [Prng.fold_in key i]
   with its addresses suffixed ["[i]"]. The key discipline makes the
   two paths draw bit-identical values. *)
and simulate_plate :
    type b. int -> (int -> b t) -> (b array * Trace.t * Ad.t) Adev.t =
 fun n body ->
  Adev.keyed (fun key ->
      match plate_plan n body with
      | Some { pl_dist = d; pl_batched = b; pl_addr = addr } ->
        let open Adev.Syntax in
        Obs.incr "gen/plate_batched";
        let* x = Adev.with_key key (Adev.sample_batched_at addr ~n d) in
        let v = d.Dist.inject x in
        Value.register_origin_value v ~address:addr
          ~strategy:(Dist.strategy_name d.Dist.strategy) ();
        Adev.return
          ( b.Dist.unstack n x,
            Trace.singleton addr v,
            Ad.sum (timed_density_n b d.Dist.name x) )
      | None ->
        Obs.incr "gen/plate_seq";
        simulate_plate_seq n body key)

and simulate_plate_seq :
    type b. int -> (int -> b t) -> Prng.key -> (b array * Trace.t * Ad.t) Adev.t
    =
 fun n body key ->
  let open Adev.Syntax in
  let rec go i vals trace w =
    if i >= n then Adev.return (Array.of_list (List.rev vals), trace, w)
    else
      let ki = Prng.fold_in key i in
      let* x, t_i, w_i =
        match body i with
        | Sample (d, addr) ->
          (* A single-site body is interpreted directly under the row
             key (not via [simulate]'s bind, which would split it), so
             sequential draws match batched rows bit-for-bit. *)
          let* x = Adev.with_key ki (Adev.sample_at addr d) in
          let v = d.Dist.inject x in
          Value.register_origin_value v ~address:(plate_slot addr i)
            ~strategy:(Dist.strategy_name d.Dist.strategy) ();
          Adev.return
            (x, Trace.singleton (plate_slot addr i) v, timed_density d x)
        | prog ->
          let* x, t, w = Adev.with_key ki (simulate prog) in
          Adev.return (x, Trace.map_keys (fun a -> plate_slot a i) t, w)
      in
      go (i + 1) (x :: vals) (Trace.union_disjoint trace t_i) (Ad.add w_i w)
  in
  go 0 [] Trace.empty (Ad.scalar 0.)

and density_plate :
    type b. int -> (int -> b t) -> Trace.t -> (Ad.t * b array * Trace.t) Adev.t
    =
 fun n body u ->
  Adev.keyed (fun key ->
      match plate_plan n body with
      | Some { pl_dist = d; pl_batched = b; pl_addr = addr }
        when Trace.mem addr u -> begin
        Obs.incr "gen/plate_batched";
        match d.Dist.project (Trace.get addr u) with
        | Some x ->
          Adev.return
            ( Ad.sum (timed_density_n b d.Dist.name x),
              b.Dist.unstack n x,
              Trace.remove addr u )
        | None ->
          Adev.return
            ( neg_inf,
              Array.init n (fun _ -> d.Dist.default),
              Trace.remove addr u )
      end
      | _ ->
        Obs.incr "gen/plate_seq";
        density_plate_seq n body u key)

and density_plate_seq :
    type b.
    int -> (int -> b t) -> Trace.t -> Prng.key ->
    (Ad.t * b array * Trace.t) Adev.t =
 fun n body u key ->
  let open Adev.Syntax in
  let rec go i w vals u =
    if i >= n then Adev.return (w, Array.of_list (List.rev vals), u)
    else
      let ki = Prng.fold_in key i in
      let suffix = Printf.sprintf "[%d]" i in
      let slen = String.length suffix in
      let strip name =
        let nlen = String.length name in
        if nlen > slen && String.sub name (nlen - slen) slen = suffix then
          Some (String.sub name 0 (nlen - slen))
        else None
      in
      (* Instance [i] sees only its own suffixed addresses, de-suffixed;
         what it consumes is removed (re-suffixed) from the plate's
         remainder. *)
      let u_i = Trace.filter_map_keys strip u in
      let* w_i, x_i, rem_i = Adev.with_key ki (density_in (body i) u_i) in
      let consumed = Trace.diff u_i rem_i in
      let u =
        List.fold_left
          (fun acc (base, _) -> Trace.remove (base ^ suffix) acc)
          u (Trace.bindings consumed)
      in
      go (i + 1) (Ad.add w_i w) (x_i :: vals) u
  in
  go 0 (Ad.scalar 0.) [] u

(* The plate-lowering decision, exposed for the compiler so plans can
   pre-record what [simulate] would decide per call. *)
type plate_decision =
  | Plate_batchable of { addr : string; instance_shape : int array option }
  | Plate_sequential

let plate_decision : type b. n:int -> (int -> b t) -> plate_decision =
 fun ~n body ->
  match plate_plan n body with
  | Some { pl_dist = d; pl_addr = addr; _ } ->
    let instance_shape =
      match d.Dist.inject (d.Dist.sample plate_probe_key) with
      | Value.Real v -> Some (Ad.shape v)
      | Value.Bool _ | Value.Int _ -> None
    in
    Plate_batchable { addr; instance_shape }
  | None -> Plate_sequential

(* ------------------------------------------------------------------ *)
(* Whole-program vectorized interpreters: run [n] i.i.d. executions of
   the program as ONE pass in which every sample site is a batched site
   (leading axis = instance axis) and the accumulated weight is a
   per-instance [n]-vector. Binds receive batched values, so the
   program must be rank-polymorphic in its deterministic parts (tensor
   ops broadcasting over the leading axis). Anything that cannot be
   rank-lifted raises [Dist.Not_batchable]; wrap calls in
   [Adev.or_else] to fall back to the sequential interpreters under
   the same key. *)

let vec_neg_inf n = Ad.const (Tensor.full [| n |] Float.neg_infinity)

(* Broadcast a scalar weight (a batch-invariant contribution) up to the
   per-instance vector. *)
let ensure_vec n w =
  if Ad.shape w = [| n |] then w else Ad.add w (Ad.const (Tensor.zeros [| n |]))

let batched_payload (d : 'v Dist.t) =
  match d.Dist.batched with
  | Some b -> b
  | None ->
    raise (Dist.Not_batchable (d.Dist.name ^ ": no batched execution payload"))

(* Per-instance observation weight. A stacked observation (or batched
   parameters broadcasting against a shared one) yields the [n]-vector
   of per-instance log densities; otherwise every instance shares the
   scalar log density. *)
let observe_weight_batched : type v. int -> v Dist.t -> v -> Ad.t =
 fun n d v ->
  let scalar () = timed_density d v in
  match d.Dist.batched with
  | None -> scalar ()
  | Some b -> begin
    match timed_density_n b d.Dist.name v with
    | lw when Ad.shape lw = [| n |] -> lw
    | _ -> scalar ()
    | exception (Dist.Not_batchable _ | Tensor.Shape_error _) -> scalar ()
  end

let rec simulate_batched : type a. n:int -> a t -> (a * Trace.t * Ad.t) Adev.t =
 fun ~n prog ->
  let open Adev.Syntax in
  match prog with
  | Return x -> Adev.return (x, Trace.empty, Ad.scalar 0.)
  | Bind (m, f) ->
    let* x, u1, w1 = simulate_batched ~n m in
    let* y, u2, w2 = simulate_batched ~n (f x) in
    Adev.return (y, Trace.union_disjoint u1 u2, Ad.add w1 w2)
  | Sample (d, name) ->
    let b = batched_payload d in
    let* x = Adev.sample_batched_at name ~n d in
    let v = d.Dist.inject x in
    Value.register_origin_value v ~address:name
      ~strategy:(Dist.strategy_name d.Dist.strategy) ();
    Adev.return (x, Trace.singleton name v, timed_density_n b d.Dist.name x)
  | Observe (d, v) ->
    let lw = observe_weight_batched n d v in
    (* The joint score over the n instances: sum of per-instance terms,
       or n copies of a shared scalar term. *)
    let joint =
      if Ad.shape lw = [| n |] then Ad.sum lw
      else Ad.scale (float_of_int n) lw
    in
    let* () = Adev.score_log joint in
    Adev.return ((), Trace.empty, lw)
  | Marginal (_, _, _) ->
    raise (Dist.Not_batchable "Gen.simulate_batched: marginal")
  | Normalize (_, _) ->
    raise (Dist.Not_batchable "Gen.simulate_batched: normalize")
  | Plate (_, _) ->
    raise (Dist.Not_batchable "Gen.simulate_batched: nested plate")

and density_in_batched :
    type a. n:int -> a t -> Trace.t -> (Ad.t * a * Trace.t) Adev.t =
 fun ~n prog u ->
  let open Adev.Syntax in
  match prog with
  | Return x -> Adev.return (Ad.scalar 0., x, u)
  | Bind (m, f) ->
    let* w1, x, u1 = density_in_batched ~n m u in
    let* w2, y, u2 = density_in_batched ~n (f x) u1 in
    Adev.return (Ad.add w1 w2, y, u2)
  | Sample (d, name) -> begin
    let b = batched_payload d in
    match Trace.find_opt name u with
    | Some v -> begin
      match d.Dist.project v with
      | Some x ->
        Adev.return (timed_density_n b d.Dist.name x, x, Trace.remove name u)
      | None ->
        Adev.return
          ( vec_neg_inf n,
            b.Dist.stack (Array.make n d.Dist.default),
            Trace.remove name u )
    end
    | None ->
      Adev.return (vec_neg_inf n, b.Dist.stack (Array.make n d.Dist.default), u)
  end
  | Observe (d, v) -> Adev.return (observe_weight_batched n d v, (), u)
  | Marginal (_, _, _) ->
    raise (Dist.Not_batchable "Gen.density_in_batched: marginal")
  | Normalize (_, _) ->
    raise (Dist.Not_batchable "Gen.density_in_batched: normalize")
  | Plate (_, _) ->
    raise (Dist.Not_batchable "Gen.density_in_batched: nested plate")

let log_density_batched ~n prog u =
  let open Adev.Syntax in
  let* w, _, remainder = density_in_batched ~n prog u in
  if Trace.is_empty remainder then Adev.return (ensure_vec n w)
  else Adev.return (vec_neg_inf n)

(* Detached execution: every site just samples, every density is primal.
   Mirrors [simulate] / [density_in] without the gradient machinery. *)
let rec sample_prior : type a. a t -> Prng.key -> a * Trace.t * float =
 fun prog key ->
  match prog with
  | Return x -> (x, Trace.empty, 0.)
  | Bind (m, f) ->
    let k1, k2 = Prng.split key in
    let x, u1, w1 = sample_prior m k1 in
    let y, u2, w2 = sample_prior (f x) k2 in
    (y, Trace.union_disjoint u1 u2, w1 +. w2)
  | Sample (d, name) ->
    let x = d.Dist.sample key in
    (x, Trace.singleton name (d.Dist.inject x), primal (d.Dist.log_density x))
  | Observe (d, v) -> ((), Trace.empty, primal (d.Dist.log_density v))
  | Marginal (keep, inner, alg) ->
    let k1, k2 = Prng.split key in
    let _, t, _ = sample_prior inner k1 in
    List.iter
      (fun name ->
        if not (Trace.mem name t) then
          invalid_arg
            (Printf.sprintf "Gen.marginal: kept address %S was not sampled"
               name))
      keep;
    let kept = Trace.restrict keep t in
    let aux = Trace.without keep t in
    let logp =
      prior_marginal_estimate inner alg ~kept ~actual_aux:(Some aux) k2
    in
    (kept, kept, logp)
  | Normalize (inner, alg) ->
    let (Packed proposal) = alg.proposal Trace.empty in
    let keys = Prng.split_many key (alg.particles + 1) in
    let particles =
      List.init alg.particles (fun i ->
          let _, t, logq = sample_prior proposal keys.(i) in
          let logp, value, remainder = prior_density inner t (Prng.fold_in keys.(i) 1) in
          let logp = if Trace.is_empty remainder then logp else Float.neg_infinity in
          (t, value, logp, logp -. logq))
    in
    let logws = List.map (fun (_, _, _, lw) -> lw) particles in
    let log_zhat = prior_log_mean_exp logws in
    let weights =
      if Float.is_finite log_zhat then
        List.map (fun lw -> Float.exp (lw -. log_zhat)) logws
      else List.map (fun _ -> 1.) logws
    in
    let j = Prng.categorical keys.(alg.particles) (Array.of_list weights) in
    let t_j, value_j, logp_j, _ = List.nth particles j in
    (value_j, t_j, logp_j -. log_zhat)
  | Plate (n, body) -> begin
    match plate_plan n body with
    | Some { pl_dist = d; pl_batched = b; pl_addr = addr } ->
      let x = b.Dist.sample_n key n in
      ( b.Dist.unstack n x,
        Trace.singleton addr (d.Dist.inject x),
        primal (Ad.sum (b.Dist.log_density_n x)) )
    | None ->
      let rec go i vals trace w =
        if i >= n then (Array.of_list (List.rev vals), trace, w)
        else
          let ki = Prng.fold_in key i in
          let x, t_i, w_i =
            match body i with
            | Sample (d, addr) ->
              (* Direct single-site interpretation under the row key so
                 the sequential path draws exactly the batched rows. *)
              let x = d.Dist.sample ki in
              ( x,
                Trace.singleton (plate_slot addr i) (d.Dist.inject x),
                primal (d.Dist.log_density x) )
            | prog ->
              let x, t, w = sample_prior prog ki in
              (x, Trace.map_keys (fun a -> plate_slot a i) t, w)
          in
          go (i + 1) (x :: vals) (Trace.union_disjoint trace t_i) (w +. w_i)
      in
      go 0 [] Trace.empty 0.
  end

and prior_density : type a. a t -> Trace.t -> Prng.key -> float * a * Trace.t =
 fun prog u key ->
  match prog with
  | Return x -> (0., x, u)
  | Bind (m, f) ->
    let k1, k2 = Prng.split key in
    let w1, x, u1 = prior_density m u k1 in
    let w2, y, u2 = prior_density (f x) u1 k2 in
    (w1 +. w2, y, u2)
  | Sample (d, name) -> begin
    match Trace.find_opt name u with
    | Some v -> begin
      match d.Dist.project v with
      | Some x -> (primal (d.Dist.log_density x), x, Trace.remove name u)
      | None -> (Float.neg_infinity, d.Dist.default, Trace.remove name u)
    end
    | None -> (Float.neg_infinity, d.Dist.default, u)
  end
  | Observe (d, v) -> (primal (d.Dist.log_density v), (), u)
  | Marginal (keep, inner, alg) ->
    if List.exists (fun name -> not (Trace.mem name u)) keep then
      (Float.neg_infinity, Trace.restrict keep u, Trace.without keep u)
    else begin
      let kept = Trace.restrict keep u in
      let logp = prior_marginal_estimate inner alg ~kept ~actual_aux:None key in
      (logp, kept, Trace.without keep u)
    end
  | Normalize (inner, alg) ->
    let (Packed proposal) = alg.proposal Trace.empty in
    let k1, k2 = Prng.split key in
    let logp_u, value, remainder = prior_density inner u k1 in
    let consumed = Trace.diff u remainder in
    let logq_u, _, rem_q = prior_density proposal consumed (Prng.fold_in k1 7) in
    let logq_u = if Trace.is_empty rem_q then logq_u else Float.neg_infinity in
    let others =
      List.init (alg.particles - 1) (fun i ->
          let ki = Prng.fold_in k2 i in
          let _, t, logq = sample_prior proposal ki in
          let lp, _, rem = prior_density inner t (Prng.fold_in ki 1) in
          let lp = if Trace.is_empty rem then lp else Float.neg_infinity in
          lp -. logq)
    in
    let log_zhat = prior_log_mean_exp ((logp_u -. logq_u) :: others) in
    (logp_u -. log_zhat, value, remainder)
  | Plate (n, body) -> begin
    match plate_plan n body with
    | Some { pl_dist = d; pl_batched = b; pl_addr = addr }
      when Trace.mem addr u -> begin
      match d.Dist.project (Trace.get addr u) with
      | Some x ->
        ( primal (Ad.sum (b.Dist.log_density_n x)),
          b.Dist.unstack n x,
          Trace.remove addr u )
      | None ->
        ( Float.neg_infinity,
          Array.init n (fun _ -> d.Dist.default),
          Trace.remove addr u )
    end
    | _ ->
      let rec go i w vals u =
        if i >= n then (w, Array.of_list (List.rev vals), u)
        else
          let ki = Prng.fold_in key i in
          let suffix = Printf.sprintf "[%d]" i in
          let slen = String.length suffix in
          let strip name =
            let nlen = String.length name in
            if nlen > slen && String.sub name (nlen - slen) slen = suffix then
              Some (String.sub name 0 (nlen - slen))
            else None
          in
          let u_i = Trace.filter_map_keys strip u in
          let w_i, x_i, rem_i = prior_density (body i) u_i ki in
          let consumed = Trace.diff u_i rem_i in
          let u =
            List.fold_left
              (fun acc (base, _) -> Trace.remove (base ^ suffix) acc)
              u (Trace.bindings consumed)
          in
          go (i + 1) (w +. w_i) (x_i :: vals) u
      in
      go 0 0. [] u
  end

and prior_marginal_estimate :
    type b.
    b t -> algorithm -> kept:Trace.t -> actual_aux:Trace.t option ->
    Prng.key -> float =
 fun inner alg ~kept ~actual_aux key ->
  let (Packed proposal) = alg.proposal kept in
  let fresh i =
    let ki = Prng.fold_in key i in
    let _, aux, logq = sample_prior proposal ki in
    let logp, _, rem =
      prior_density inner (Trace.union_disjoint kept aux) (Prng.fold_in ki 1)
    in
    let logp = if Trace.is_empty rem then logp else Float.neg_infinity in
    logp -. logq
  in
  let particles =
    match actual_aux with
    | None -> List.init alg.particles fresh
    | Some aux ->
      let k1, _ = Prng.split key in
      let logq, _, rem_q = prior_density proposal aux k1 in
      let logq = if Trace.is_empty rem_q then logq else Float.neg_infinity in
      let logp, _, rem =
        prior_density inner (Trace.union_disjoint kept aux) (Prng.fold_in k1 1)
      in
      let logp = if Trace.is_empty rem then logp else Float.neg_infinity in
      (logp -. logq) :: List.init (alg.particles - 1) fresh
  in
  prior_log_mean_exp particles

and prior_log_mean_exp logws =
  let n = float_of_int (List.length logws) in
  let m = List.fold_left Float.max Float.neg_infinity logws in
  if m = Float.neg_infinity then Float.neg_infinity
  else
    m
    +. Float.log
         (List.fold_left (fun acc lw -> acc +. Float.exp (lw -. m)) 0. logws)
    -. Float.log n

let rec enumerate : type a. a t -> (a * Trace.t * float) list = function
  | Return x -> [ (x, Trace.empty, 0.) ]
  | Bind (m, f) ->
    List.concat_map
      (fun (x, u1, w1) ->
        List.map
          (fun (y, u2, w2) -> (y, Trace.union_disjoint u1 u2, w1 +. w2))
          (enumerate (f x)))
      (enumerate m)
  | Sample (d, name) -> begin
    match d.Dist.support with
    | Some support ->
      List.map
        (fun v ->
          ( v,
            Trace.singleton name (d.Dist.inject v),
            primal (d.Dist.log_density v) ))
        support
    | None ->
      invalid_arg
        (Printf.sprintf "Gen.enumerate: site %S (%s) has no finite support"
           name d.Dist.name)
  end
  | Observe (d, v) -> [ ((), Trace.empty, primal (d.Dist.log_density v)) ]
  | Marginal (_, _, _) -> invalid_arg "Gen.enumerate: marginal"
  | Normalize (_, _) -> invalid_arg "Gen.enumerate: normalize"
  | Plate (_, _) -> invalid_arg "Gen.enumerate: plate"

let exact_log_marginal prog =
  let ws = List.map (fun (_, _, w) -> w) (enumerate prog) in
  prior_log_mean_exp ws +. Float.log (float_of_int (List.length ws))

type _ view =
  | View_return : 'a -> 'a view
  | View_bind : 'b t * ('b -> 'a t) -> 'a view
  | View_sample : 'v Dist.t * string -> 'v view
  | View_observe : 'v Dist.t * 'v -> unit view
  | View_unsupported : string -> 'a view

let view : type a. a t -> a view = function
  | Return x -> View_return x
  | Bind (m, f) -> View_bind (m, f)
  | Sample (d, name) -> View_sample (d, name)
  | Observe (d, v) -> View_observe (d, v)
  | Marginal (_, _, _) -> View_unsupported "marginal"
  | Normalize (_, _) -> View_unsupported "normalize"
  | Plate (_, _) -> View_unsupported "plate"

type _ node =
  | Node_return : 'a -> 'a node
  | Node_bind : 'b t * ('b -> 'a t) -> 'a node
  | Node_sample : 'v Dist.t * string -> 'v node
  | Node_observe : 'v Dist.t * 'v -> unit node
  | Node_marginal : string list * 'b t * algorithm -> Trace.t node
  | Node_normalize : 'a t * algorithm -> 'a node
  | Node_plate : int * (int -> 'v t) -> 'v array node

let reflect : type a. a t -> a node = function
  | Return x -> Node_return x
  | Bind (m, f) -> Node_bind (m, f)
  | Sample (d, name) -> Node_sample (d, name)
  | Observe (d, v) -> Node_observe (d, v)
  | Marginal (keep, inner, alg) -> Node_marginal (keep, inner, alg)
  | Normalize (inner, alg) -> Node_normalize (inner, alg)
  | Plate (n, body) -> Node_plate (n, body)

let algorithm_proposal alg = alg.proposal
let algorithm_particles alg = alg.particles

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
end

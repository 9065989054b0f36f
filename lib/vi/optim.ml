type spec =
  | Sgd of { lr : float }
  | Adam of { lr : float; beta1 : float; beta2 : float; eps : float }

type state = { mutable m : Tensor.t; mutable v : Tensor.t; mutable t : int }

type t = {
  spec : spec;
  states : (string, state) Hashtbl.t;
  mutable skipped : int;
}

let sgd ~lr = { spec = Sgd { lr }; states = Hashtbl.create 16; skipped = 0 }

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) ~lr () =
  { spec = Adam { lr; beta1; beta2; eps }; states = Hashtbl.create 16; skipped = 0 }

type direction = Ascend | Descend

let state_for t name shape =
  match Hashtbl.find_opt t.states name with
  | Some s -> s
  | None ->
    let s = { m = Tensor.zeros shape; v = Tensor.zeros shape; t = 0 } in
    Hashtbl.add t.states name s;
    s

let skipped t = t.skipped

let step ?clip_norm ?(on_skip = fun _ _ -> ()) t direction store grads =
  let sign = match direction with Ascend -> 1. | Descend -> -1. in
  (* Fault-injection hook (one branch when no plan is installed): a
     poisoned gradient exercises the exact skip/report machinery a real
     divergent sample would. *)
  let grads =
    if Fault.active () then
      List.map
        (fun (name, g) ->
          match Fault.grad_poison ~name with
          | None -> (name, g)
          | Some v ->
            let a = Tensor.to_array g in
            if Array.length a > 0 then a.(0) <- v;
            (name, Tensor.of_array (Tensor.shape g) a))
        grads
    else grads
  in
  let finite, bad =
    List.partition (fun (_, g) -> Tensor.all_finite g) grads
  in
  List.iter
    (fun (name, g) ->
      t.skipped <- t.skipped + 1;
      Obs.incr "optim/skipped_grads";
      on_skip name g)
    bad;
  let finite =
    match clip_norm with
    | None -> finite
    | Some max_norm ->
      if Obs.live () then begin
        let norm = Tensor.global_norm (List.map snd finite) in
        Obs.hist "optim/grad_norm" norm;
        if norm > max_norm then Obs.incr "optim/clip_events"
      end;
      let clipped =
        Tensor.clip_by_global_norm ~max_norm (List.map snd finite)
      in
      List.map2 (fun (name, _) g -> (name, g)) finite clipped
  in
  List.iter
    (fun (name, g) ->
      let x = Store.tensor store name in
      match t.spec with
      | Sgd { lr } ->
        let slr = sign *. lr in
        Store.set store name (Tensor.map2 (fun xi gi -> xi +. (slr *. gi)) x g)
      | Adam { lr; beta1; beta2; eps } ->
        let s = state_for t name (Tensor.shape g) in
        s.t <- s.t + 1;
        (* Moments are updated in place (the state owns them; snapshots
           deep-copy) and the bias-corrected update is fused into one
           map2 — the per-element expressions match the former
           scale/add/mul chain operation for operation, so every result
           bit is unchanged. *)
        let c1 = 1. -. beta1 and c2 = 1. -. beta2 in
        Tensor.map2_ (fun mi gi -> (beta1 *. mi) +. (c1 *. gi)) s.m g;
        Tensor.map2_ (fun vi gi -> (beta2 *. vi) +. (c2 *. (gi *. gi))) s.v g;
        let cm = 1. /. (1. -. (beta1 ** float_of_int s.t)) in
        let cv = 1. /. (1. -. (beta2 ** float_of_int s.t)) in
        let update =
          Tensor.map2
            (fun mi vi -> (cm *. mi) /. (Float.sqrt (cv *. vi) +. eps))
            s.m s.v
        in
        let slr = sign *. lr in
        Store.set store name
          (Tensor.map2 (fun xi ui -> xi +. (slr *. ui)) x update))
    finite

let reset t =
  Hashtbl.reset t.states;
  t.skipped <- 0

type snapshot = (string * state) list * int

(* Both directions deep-copy the moment tensors: [step] mutates them in
   place, so a shared reference would let later steps corrupt a saved
   snapshot (and a restored state corrupt the snapshot it came from). *)
let snapshot t : snapshot =
  ( Hashtbl.fold
      (fun name s acc ->
        (name, { m = Tensor.copy s.m; v = Tensor.copy s.v; t = s.t }) :: acc)
      t.states [],
    t.skipped )

let restore t ((states, skipped) : snapshot) =
  Hashtbl.reset t.states;
  List.iter
    (fun (name, s) ->
      Hashtbl.add t.states name
        { m = Tensor.copy s.m; v = Tensor.copy s.v; t = s.t })
    states;
  t.skipped <- skipped

(* Tensor-encoded state, for durable checkpoints: per parameter the
   moments as-is and the step counter as a scalar, prefixed "m."/"v."/
   "t." (the parameter name may itself contain dots; only the first
   dot is the tag separator). Scalars round-trip exactly — counters
   are far below the 2^53 integer-precision limit. *)

let export_state t =
  let entries =
    Hashtbl.fold
      (fun name s acc ->
        ("m." ^ name, s.m)
        :: ("v." ^ name, s.v)
        :: ("t." ^ name, Tensor.scalar (float_of_int s.t))
        :: acc)
      t.states []
  in
  ("skipped", Tensor.scalar (float_of_int t.skipped))
  :: List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let import_state t entries =
  Hashtbl.reset t.states;
  t.skipped <- 0;
  let ms = Hashtbl.create 16 in
  let vs = Hashtbl.create 16 in
  let ts = Hashtbl.create 16 in
  List.iter
    (fun (key, x) ->
      if key = "skipped" then
        t.skipped <- int_of_float (Tensor.to_scalar x)
      else
        match String.index_opt key '.' with
        | None -> ()
        | Some i ->
          let tag = String.sub key 0 i in
          let name = String.sub key (i + 1) (String.length key - i - 1) in
          (match tag with
          | "m" -> Hashtbl.replace ms name x
          | "v" -> Hashtbl.replace vs name x
          | "t" -> Hashtbl.replace ts name x
          | _ -> ()))
    entries;
  Hashtbl.iter
    (fun name m ->
      match (Hashtbl.find_opt vs name, Hashtbl.find_opt ts name) with
      | Some v, Some steps ->
        Hashtbl.add t.states name
          { m = Tensor.copy m;
            v = Tensor.copy v;
            t = int_of_float (Tensor.to_scalar steps) }
      | _ -> ())
    ms

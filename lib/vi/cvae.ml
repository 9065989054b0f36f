let latent_dim = 5
let observed_quadrant = 2 (* bottom-left, as in the paper's Fig. 17 *)
let hidden_dim = 48
let input_dim = Data.sprite_side / 2 * (Data.sprite_side / 2)
let output_dim = Data.sprite_dim - input_dim

let register store key =
  Layer.mlp_register store ~name:"cvae.baseline"
    ~dims:[ input_dim; hidden_dim; output_dim ]
    ~key:(Prng.fold_in key 0);
  Layer.mlp_register store ~name:"cvae.prior.mu"
    ~dims:[ input_dim; hidden_dim; latent_dim ]
    ~key:(Prng.fold_in key 1);
  Layer.mlp_register store ~name:"cvae.prior.rho"
    ~dims:[ input_dim; hidden_dim; latent_dim ]
    ~key:(Prng.fold_in key 2);
  Layer.mlp_register store ~name:"cvae.gen"
    ~dims:[ latent_dim + input_dim; hidden_dim; output_dim ]
    ~key:(Prng.fold_in key 3);
  Layer.mlp_register store ~name:"cvae.rec.mu"
    ~dims:[ input_dim + output_dim; hidden_dim; latent_dim ]
    ~key:(Prng.fold_in key 4);
  Layer.mlp_register store ~name:"cvae.rec.rho"
    ~dims:[ input_dim + output_dim; hidden_dim; latent_dim ]
    ~key:(Prng.fold_in key 5)

let baseline_loss frame inputs targets =
  let logits = Layer.mlp frame ~name:"cvae.baseline" ~layers:2 (Ad.const inputs) in
  let n = float_of_int (Tensor.shape inputs).(0) in
  Ad.scale (-1. /. n)
    (Dist.log_density_bernoulli_logits ~logits (Ad.const targets))

let heads frame prefix input =
  let mu = Layer.mlp frame ~name:(prefix ^ ".mu") ~layers:2 input in
  let rho = Layer.mlp frame ~name:(prefix ^ ".rho") ~layers:2 input in
  (mu, Ad.add_scalar 1e-3 (Ad.softplus rho))

let model frame input target =
  let open Gen.Syntax in
  let mu, std = heads frame "cvae.prior" (Ad.const input) in
  let* z = Gen.sample (Dist.mv_normal_diag_reparam mu std) "z" in
  let logits =
    Layer.mlp frame ~name:"cvae.gen" ~layers:2
      (Ad.concat0 [ z; Ad.const input ])
  in
  Gen.observe (Dist.bernoulli_logits_vector logits) (Ad.const target)

let guide frame input target =
  let open Gen.Syntax in
  let mu, std =
    heads frame "cvae.rec" (Ad.const (Tensor.concat0 [ input; target ]))
  in
  let* _ = Gen.sample (Dist.mv_normal_diag_reparam mu std) "z" in
  Gen.return ()

let elbo frame input target =
  Objectives.elbo ~model:(model frame input target)
    ~guide:(guide frame input target)

(* Row-wise concatenation of [n x a] and [n x b] into [n x (a+b)]. *)
let hcat a b = Ad.transpose (Ad.concat0 [ Ad.transpose a; Ad.transpose b ])

(* Stacked-minibatch programs (inputs: [b x input_dim], targets:
   [b x output_dim]). The prior/recognition heads run once on the whole
   stack, so the "z" site carries data-indexed [b x latent] parameters:
   under [Gen.simulate_batched ~n:b] each instance draws its own row
   and the Bernoulli observation scores per row. *)
let model_batch frame inputs targets =
  let open Gen.Syntax in
  let mu, std = heads frame "cvae.prior" (Ad.const inputs) in
  let* z = Gen.sample (Dist.mv_normal_diag_reparam mu std) "z" in
  let logits =
    Layer.mlp frame ~name:"cvae.gen" ~layers:2 (hcat z (Ad.const inputs))
  in
  Gen.observe (Dist.bernoulli_logits_vector logits) (Ad.const targets)

let guide_batch frame inputs targets =
  let open Gen.Syntax in
  let mu, std =
    heads frame "cvae.rec"
      (Ad.const (Tensor.transpose (Tensor.concat0 [ Tensor.transpose inputs; Tensor.transpose targets ])))
  in
  let* _ = Gen.sample (Dist.mv_normal_diag_reparam mu std) "z" in
  Gen.return ()

(* The [b]-vector of per-datum ELBO terms: vectorized when every site
   rank-lifts (one batched pass), with a per-datum sequential loop as
   the same-key fallback. *)
let elbo_batch frame inputs targets =
  let b = (Tensor.shape inputs).(0) in
  let vectorized =
    Objectives.elbo_batched ~n:b
      ~model:(model_batch frame inputs targets)
      ~guide:(guide_batch frame inputs targets)
  in
  let looped =
    let open Adev.Syntax in
    let rec go i acc =
      if i >= b then Adev.return (Ad.stack0 (List.rev acc))
      else
        let* e =
          elbo frame (Tensor.slice0 inputs i) (Tensor.slice0 targets i)
        in
        go (i + 1) (e :: acc)
    in
    go 0 []
  in
  Adev.or_else vectorized looped

let split_image image =
  let input = Tensor.flatten (Data.quadrant image observed_quadrant) in
  let target = Data.without_quadrant image observed_quadrant in
  (input, target)

let minibatch images ~batch ~step =
  let rows =
    List.init batch (fun i ->
        split_image (Tensor.slice0 images ((step * batch) + i)))
  in
  (Tensor.stack0 (List.map fst rows), Tensor.stack0 (List.map snd rows))

let train_epoch ?guard ~store ~optim ~images ~batch key =
  let n = (Tensor.shape images).(0) in
  let nbatches = n / batch in
  let t0 = Unix.gettimeofday () in
  let reports =
    Train.fit_batched ~store ~optim ?guard ~steps:nbatches
      ~objective:(fun frame step ->
        let inputs, targets = minibatch images ~batch ~step in
        let obj =
          let open Adev.Syntax in
          let* es = elbo_batch frame inputs targets in
          (* Joint training: the deterministic baseline net learns from
             the same pixels (negated: outer loop ascends). One batch
             cross-entropy stands in for the per-datum terms — same
             mean objective. *)
          let bl = baseline_loss frame inputs targets in
          Adev.return (Ad.sub es bl)
        in
        (batch, obj))
      key
  in
  let dt = Unix.gettimeofday () -. t0 in
  let mean =
    List.fold_left (fun acc r -> acc +. r.Train.objective) 0. reports
    /. float_of_int (Stdlib.max 1 nbatches)
  in
  (mean, dt)

let reassemble input filled =
  let side = Data.sprite_side in
  let half = side / 2 in
  let r0 = observed_quadrant / 2 * half
  and c0 = observed_quadrant mod 2 * half in
  let next = ref 0 in
  Tensor.init [| side; side |] (fun ix ->
      let r = ix.(0) and c = ix.(1) in
      if r >= r0 && r < r0 + half && c >= c0 && c < c0 + half then
        Tensor.get_flat input (((r - r0) * half) + (c - c0))
      else begin
        let v = Tensor.get_flat filled !next in
        incr next;
        v
      end)

let fill_in store image key =
  let frame = Store.Frame.make store in
  let input, _ = split_image image in
  let mu, std = heads frame "cvae.prior" (Ad.const input) in
  let z = Ad.const (Prng.normal_tensor_mean_std key (Ad.value mu) (Ad.value std)) in
  let logits =
    Layer.mlp frame ~name:"cvae.gen" ~layers:2 (Ad.concat0 [ z; Ad.const input ])
  in
  reassemble input (Tensor.sigmoid (Ad.value logits))

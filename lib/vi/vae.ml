let latent_dim = 10
let hidden_dim = 64
let image_dim = Data.sprite_dim

let register store key =
  Layer.dense_register store ~name:"vae.enc.trunk" ~in_dim:image_dim
    ~out_dim:hidden_dim ~key:(Prng.fold_in key 0);
  Layer.dense_register store ~name:"vae.enc.mu" ~in_dim:hidden_dim
    ~out_dim:latent_dim ~key:(Prng.fold_in key 1);
  Layer.dense_register store ~name:"vae.enc.rho" ~in_dim:hidden_dim
    ~out_dim:latent_dim ~key:(Prng.fold_in key 2);
  Layer.dense_register store ~name:"vae.dec.trunk" ~in_dim:latent_dim
    ~out_dim:hidden_dim ~key:(Prng.fold_in key 3);
  Layer.dense_register store ~name:"vae.dec.out" ~in_dim:hidden_dim
    ~out_dim:image_dim ~key:(Prng.fold_in key 4)

let encode frame images =
  let h = Layer.dense frame ~name:"vae.enc.trunk" ~act:Layer.Softplus images in
  let mu = Layer.dense frame ~name:"vae.enc.mu" h in
  let rho = Layer.dense frame ~name:"vae.enc.rho" h in
  (mu, Ad.add_scalar 1e-3 (Ad.softplus rho))

let decode frame z =
  let h = Layer.dense frame ~name:"vae.dec.trunk" ~act:Layer.Softplus z in
  Layer.dense frame ~name:"vae.dec.out" h

(* The standard-normal prior over one datum's latent code. *)
let prior1 =
  Dist.mv_normal_diag_reparam
    (Ad.const (Tensor.zeros [| latent_dim |]))
    (Ad.const (Tensor.ones [| latent_dim |]))

let model frame images =
  let n = (Tensor.shape images).(0) in
  let open Gen.Syntax in
  (* [iid n prior1]: the minibatch prior as one plated (rank-lifted)
     site — n i.i.d. rows drawn and scored as a single [n x latent]
     batched draw. *)
  let* z = Gen.sample (Dist.iid n prior1) "latent" in
  let logits = decode frame z in
  Gen.observe (Dist.bernoulli_logits_vector logits) (Ad.const images)

let guide frame images =
  let mu, std = encode frame (Ad.const images) in
  let open Gen.Syntax in
  let* _ = Gen.sample (Dist.mv_normal_diag_reparam mu std) "latent" in
  Gen.return ()

(* Single-datum programs (image: [image_dim] vector). These are what the
   vectorized particle evaluators rank-lift: under
   [Gen.simulate_batched ~n:k] the one latent site draws [k x latent]
   in one pass and the observation broadcasts to a [k]-vector of
   likelihoods. *)
let model1 frame image =
  let open Gen.Syntax in
  let* z = Gen.sample prior1 "latent" in
  let logits = decode frame z in
  Gen.observe (Dist.bernoulli_logits_vector logits) (Ad.const image)

let guide1 frame image =
  let mu, std = encode frame (Ad.const image) in
  let open Gen.Syntax in
  let* _ = Gen.sample (Dist.mv_normal_diag_reparam mu std) "latent" in
  Gen.return ()

let elbo_per_datum ?compiled:_ frame images =
  let n = float_of_int (Tensor.shape images).(0) in
  Adev.map
    (Ad.scale (1. /. n))
    (Objectives.elbo ~model:(model frame images) ~guide:(guide frame images))

(* The unbatched reference: one interpreter pass and one tape per datum.
   Same objective as {!elbo_per_datum}; what Table 1's vectorization
   column measures against. *)
let elbo_per_datum_looped frame images =
  let n = (Tensor.shape images).(0) in
  let open Adev.Syntax in
  let rec go i acc =
    if i >= n then Adev.return (Ad.scale (1. /. float_of_int n) acc)
    else
      let image = Tensor.slice0 images i in
      let* e =
        Objectives.elbo ~model:(model1 frame image) ~guide:(guide1 frame image)
      in
      go (i + 1) (Ad.add acc e)
  in
  go 0 (Ad.scalar 0.)

(* The batch ELBO built as [segments] contiguous row-slices, each an
   independent one-sample estimate under [fold_in key i]; with [remat]
   each slice's tape segment sits behind an [Ad.checkpoint] barrier, so
   peak live tape holds one slice's segment instead of the whole
   batch's. The slice ELBOs sum to the batch ELBO, scaled per-datum as
   in {!elbo_per_datum} (the segment keys differ from the unsliced
   estimator's stream — compare sliced-to-sliced). *)
let elbo_sliced ?(segments = 1) ?(remat = false) frame images key =
  let n = (Tensor.shape images).(0) in
  let segments = max 1 (min segments n) in
  let term i =
    let lo = i * n / segments and hi = (i + 1) * n / segments in
    let rows = List.init (hi - lo) (fun j -> lo + j) in
    let slice = Tensor.take_rows images rows in
    let objective =
      Objectives.elbo ~model:(model frame slice) ~guide:(guide frame slice)
    in
    let build () = Adev.expectation objective (Prng.fold_in key i) in
    if remat then Ad.checkpoint build else build ()
  in
  Ad.scale
    (1. /. float_of_int n)
    (Ad.add_list (List.init segments term))

(* The data-parallel step spec: shard [i] scores rows
   [i*batch/shards, (i+1)*batch/shards) of the step's minibatch, scaled
   by 1/batch so the shard surrogates sum to the per-datum objective.
   Every shard redraws the (deterministic) minibatch and slices its own
   rows — cheaper than coordinating ownership, and key-exact. *)
let step_spec ~shards ~remat ~batch key =
  { Train.shards;
    remat;
    make =
      (fun frame ~step ~shard ~shards shard_key ->
        let images, _ =
          Data.digit_batch (Prng.fold_in key (10000 + step)) batch
        in
        let lo = shard * batch / shards and hi = (shard + 1) * batch / shards in
        let rows = List.init (hi - lo) (fun j -> lo + j) in
        let slice = Tensor.take_rows images rows in
        let objective =
          Objectives.elbo ~model:(model frame slice) ~guide:(guide frame slice)
        in
        Adev.expectation
          (Adev.map (Ad.scale (1. /. float_of_int batch)) objective)
          shard_key) }

let train ?(steps = 400) ?(batch = 64) ?(lr = 1e-3) ?(shards = 1)
    ?(remat = false) ?guard ?persist ?store key =
  let store = match store with Some s -> s | None -> Store.create () in
  register store key;
  let optim = Optim.adam ~lr () in
  let reports =
    if shards <= 1 then
      (* Historical single-tape path; [remat] places the checkpoint
         barrier inside [expectation_mean], keeping the instruction
         stream (and with remat, the gradients bit-for-bit). *)
      Train.fit ~store ~optim ~remat ?guard ?persist ~steps
        ~objective:(fun frame step ->
          let images, _ =
            Data.digit_batch (Prng.fold_in key (10000 + step)) batch
          in
          elbo_per_datum frame images)
        key
    else
      Train.fit_spec ~store ~optim ?guard ?persist ~steps
        ~spec:(step_spec ~shards ~remat ~batch key)
        key
  in
  (store, reports)

(* One warmup round, then time forward + backward per repeat. *)
let time_surrogate store ~repeats make key =
  let run i =
    let frame = Store.Frame.make store in
    let surrogate = Adev.expectation (make frame) (Prng.fold_in key i) in
    Ad.backward surrogate;
    ignore (Store.Frame.grads frame)
  in
  run 0;
  let t0 = Unix.gettimeofday () in
  for i = 1 to repeats do
    run i
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int repeats

let grad_step_time store ~batch ~repeats key =
  let images, _ = Data.digit_batch key batch in
  time_surrogate store ~repeats (fun frame -> elbo_per_datum frame images) key

let grad_step_time_looped store ~batch ~repeats key =
  let images, _ = Data.digit_batch key batch in
  time_surrogate store ~repeats
    (fun frame -> elbo_per_datum_looped frame images)
    key

(* One sliced/checkpointed gradient step over pre-drawn images
   (forward + backward + grad read, no data generation), for the
   memory bench's GC word accounting: the caller brackets this with
   [Gc.quick_stat], and excluding the identical-on-both-sides batch
   synthesis keeps the remat-vs-plain comparison about the tape. *)
let grad_step_on store ~images ~segments ~remat key =
  let frame = Store.Frame.make store in
  let surrogate =
    elbo_sliced ~segments ~remat frame images (Prng.fold_in key 1)
  in
  Ad.backward surrogate;
  ignore (Store.Frame.grads frame)

let grad_step_once store ~batch ~segments ~remat key =
  let images, _ = Data.digit_batch key batch in
  grad_step_on store ~images ~segments ~remat key

(* Peak live tape for one gradient step built via {!elbo_sliced}:
   reset the counters from a quiescent point, run forward + backward,
   return the high-water mark. *)
let grad_step_peak_live store ~batch ~segments ~remat key =
  let images, _ = Data.digit_batch key batch in
  Ad.reset_live_stats ();
  grad_step_on store ~images ~segments ~remat key;
  Ad.peak_live_nodes ()

let grad_step_time_remat store ~batch ~segments ~repeats key =
  let images, _ = Data.digit_batch key batch in
  let run i =
    let frame = Store.Frame.make store in
    let surrogate =
      elbo_sliced ~segments ~remat:true frame images (Prng.fold_in key i)
    in
    Ad.backward surrogate;
    ignore (Store.Frame.grads frame)
  in
  run 0;
  let t0 = Unix.gettimeofday () in
  for i = 1 to repeats do
    run i
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int repeats

let iwelbo_step_time store ~particles ~batched ~repeats key =
  let images, _ = Data.digit_batch key 1 in
  let image = Tensor.slice0 images 0 in
  time_surrogate store ~repeats
    (fun frame ->
      Objectives.iwelbo ~batched ~particles ~model:(model1 frame image)
        ~guide:(guide1 frame image) ())
    key

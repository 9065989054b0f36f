type discrete_strategy = RE | RE_BL | EN | MV

let strategy_name = function
  | RE -> "REINFORCE"
  | RE_BL -> "REINFORCE+BL"
  | EN -> "ENUM"
  | MV -> "MVD"

let code_dim = 4
let trunk_dim = 48
let patch_dim = Data.patch_side * Data.patch_side
let image_dim = Data.canvas_dim

let register store key =
  Layer.mlp_register store ~name:"air.dec"
    ~dims:[ code_dim; 16; patch_dim ]
    ~key:(Prng.fold_in key 0);
  Layer.dense_register store ~name:"air.enc.trunk" ~in_dim:image_dim
    ~out_dim:trunk_dim ~key:(Prng.fold_in key 1);
  for i = 0 to Data.max_objects - 1 do
    let head name out_dim j =
      Layer.dense_register store
        ~name:(Printf.sprintf "air.enc.%s.%d" name i)
        ~in_dim:trunk_dim ~out_dim
        ~key:(Prng.fold_in key (10 + (10 * i) + j))
    in
    head "pres" 1 0;
    head "pos" Data.num_positions 1;
    head "mu" code_dim 2;
    head "rho" code_dim 3
  done

type baselines = (string, Baseline.t) Hashtbl.t

let make_baselines () : baselines = Hashtbl.create 8

let baseline_cell (t : baselines) address =
  match Hashtbl.find_opt t address with
  | Some cell -> cell
  | None ->
    let cell = Baseline.create () in
    Hashtbl.add t address cell;
    cell

(* Placement matrices: patch pixel j of grid position p lands at canvas
   pixel [place.(p)] row j. *)
let place_matrices =
  lazy
    (Array.init Data.num_positions (fun p ->
         let r0, c0 = Data.position_offset p in
         Tensor.init [| patch_dim; image_dim |] (fun ix ->
             let pr = ix.(0) / Data.patch_side
             and pc = ix.(0) mod Data.patch_side in
             let canvas_index = ((r0 + pr) * Data.canvas_side) + (c0 + pc) in
             if ix.(1) = canvas_index then 1. else 0.)))

let decode frame code =
  Ad.sigmoid (Layer.mlp frame ~name:"air.dec" ~layers:2 code)

let or_compose a b =
  (* 1 - (1 - a)(1 - b), elementwise. *)
  Ad.O.(a + b - (a * b))

(* Model presence priors match the data's uniform count over
   {0, .., max_objects}: P(n >= 1) = 2/3, P(n = 2 | n >= 1) = 1/2. *)
let model_pres_prob = [| 2. /. 3.; 0.5 |]

let model frame image =
  let open Gen.Syntax in
  let uniform_pos_logits = Ad.const (Tensor.zeros [| Data.num_positions |]) in
  let rec objects i canvas =
    if i >= Data.max_objects then Gen.return canvas
    else
      let* pres =
        Gen.sample
          (Dist.flip_reinforce (Ad.scalar model_pres_prob.(i)))
          (Printf.sprintf "pres_%d" i)
      in
      if not pres then Gen.return canvas
      else
        let* pos =
          Gen.sample
            (Dist.categorical_logits_reinforce uniform_pos_logits)
            (Printf.sprintf "pos_%d" i)
        in
        let* code =
          Gen.sample
            (Dist.mv_normal_diag_reparam
               (Ad.const (Tensor.zeros [| code_dim |]))
               (Ad.const (Tensor.ones [| code_dim |])))
            (Printf.sprintf "code_%d" i)
        in
        let patch = decode frame code in
        let placed = Ad.matmul patch (Ad.const (Lazy.force place_matrices).(pos)) in
        objects (i + 1) (or_compose canvas placed)
  in
  let* canvas = objects 0 (Ad.const (Tensor.zeros [| image_dim |])) in
  let probs = Ad.add_scalar 0.01 (Ad.scale 0.98 canvas) in
  Gen.observe (Dist.bernoulli_vector probs) (Ad.const image)

let flip_with strategy baselines address p =
  match strategy with
  | RE -> Dist.flip_reinforce p
  | RE_BL -> Dist.flip_reinforce_bl (baseline_cell baselines address) p
  | EN -> Dist.flip_enum p
  | MV -> Dist.flip_mvd p

let categorical_with strategy baselines address logits =
  match strategy with
  | RE -> Dist.categorical_logits_reinforce logits
  | RE_BL ->
    Dist.categorical_logits_reinforce_bl (baseline_cell baselines address)
      logits
  | EN -> Dist.categorical_logits_enum logits
  | MV -> Dist.categorical_logits_mvd logits

let guide ?(pres = RE) ?(pos = RE) ~baselines frame image =
  let open Gen.Syntax in
  let h =
    Layer.dense frame ~name:"air.enc.trunk" ~act:Layer.Softplus
      (Ad.const image)
  in
  let head name i = Layer.dense frame ~name:(Printf.sprintf "air.enc.%s.%d" name i) h in
  let rec objects i =
    if i >= Data.max_objects then Gen.return ()
    else begin
      let pres_addr = Printf.sprintf "pres_%d" i in
      let p = Ad.sigmoid (Ad.get (head "pres" i) [| 0 |]) in
      let* present = Gen.sample (flip_with pres baselines pres_addr p) pres_addr in
      if not present then Gen.return ()
      else begin
        let pos_addr = Printf.sprintf "pos_%d" i in
        let* _ =
          Gen.sample (categorical_with pos baselines pos_addr (head "pos" i)) pos_addr
        in
        let mu = head "mu" i in
        let std = Ad.add_scalar 1e-3 (Ad.softplus (head "rho" i)) in
        let* _ =
          Gen.sample (Dist.mv_normal_diag_reparam mu std)
            (Printf.sprintf "code_%d" i)
        in
        objects (i + 1)
      end
    end
  in
  objects 0

type objective = Elbo | Iwelbo of int | Rws of int

let objective_name = function
  | Elbo -> "ELBO"
  | Iwelbo n -> Printf.sprintf "IWELBO(n=%d)" n
  | Rws n -> Printf.sprintf "RWS(n=%d)" n

let rws_objective ~particles ~baselines frame image =
  let open Adev.Syntax in
  (* The SIR proposal uses the current guide with detached parameters
     (the paper's phi'); wake-phase gradients then flow only through the
     model density (theta) and the live-guide density (phi). *)
  let proposal =
    guide ~baselines:(make_baselines ()) (Store.Frame.detach frame) image
  in
  let sir =
    Gen.normalize (model frame image)
      (Gen.importance_prior ~particles (Gen.Packed proposal))
  in
  let* _, trace, logw = Gen.simulate sir in
  let* logp = Gen.log_density (model frame image) trace in
  let* logq = Gen.log_density (guide ~baselines frame image) trace in
  Adev.return Ad.O.(logp - Ad.stop_grad logw + logq)

let batch_objectives ?(pres = RE) ?(pos = RE) ~baselines objective frame
    images =
  let rows = Tensor.rows images in
  List.map
    (fun image ->
      match objective with
      | Elbo ->
        Objectives.elbo ~model:(model frame image)
          ~guide:(guide ~pres ~pos ~baselines frame image)
      | Iwelbo n ->
        Objectives.iwelbo ~particles:n ~model:(model frame image)
          ~guide:(guide ~pres ~pos ~baselines frame image)
          ()
      | Rws n -> rws_objective ~particles:n ~baselines frame image)
    rows

let train_epoch ?(pres = RE) ?(pos = RE) ?guard ~store ~optim ~baselines
    ~objective ~images ~batch key =
  let n = (Tensor.shape images).(0) in
  let nbatches = n / batch in
  let t0 = Unix.gettimeofday () in
  let reports =
    Train.fit_batch ~store ~optim ?guard ~steps:nbatches
      ~objectives:(fun frame step ->
        let rows = List.init batch (fun i -> (step * batch) + i) in
        let minibatch = Tensor.take_rows images rows in
        batch_objectives ~pres ~pos ~baselines objective frame minibatch)
      key
  in
  let dt = Unix.gettimeofday () -. t0 in
  let mean =
    List.fold_left (fun acc r -> acc +. r.Train.objective) 0. reports
    /. float_of_int (Stdlib.max 1 nbatches)
  in
  (mean, dt)

let infer_count store image key =
  let frame = Store.Frame.make store in
  let g = guide ~baselines:(make_baselines ()) frame image in
  let _, trace, _ = Gen.sample_prior g key in
  List.length
    (List.filter
       (fun addr -> String.length addr >= 4 && String.sub addr 0 4 = "pres"
                    && Trace.get_bool addr trace)
       (Trace.keys trace))

let count_accuracy store images counts key =
  let n = (Tensor.shape images).(0) in
  let correct = ref 0 in
  for i = 0 to n - 1 do
    let c = infer_count store (Tensor.slice0 images i) (Prng.fold_in key i) in
    if c = counts.(i) then incr correct
  done;
  float_of_int !correct /. float_of_int n

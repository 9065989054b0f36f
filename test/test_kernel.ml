(* Bit-for-bit equivalence of the blocked/parallel tensor kernels with
   naive sequential references, aliasing discipline of the in-place AD
   accumulation, and the deep-tape backward pass. *)

let exact_eq msg a b = Alcotest.(check bool) msg true (Tensor.equal a b)
let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Naive references replicating the historical (pre-kernel) semantics,
   including which operand's zeros were skipped in each rank dispatch. *)

let ref_matmul a b =
  let sa = Tensor.shape a and sb = Tensor.shape b in
  let m = sa.(0) and k = sa.(1) and n = sb.(1) in
  let ad = Tensor.to_array a and bd = Tensor.to_array b in
  let c = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let aip = ad.((i * k) + p) in
      if aip <> 0. then
        for j = 0 to n - 1 do
          c.((i * n) + j) <- c.((i * n) + j) +. (aip *. bd.((p * n) + j))
        done
    done
  done;
  Tensor.of_array [| m; n |] c

let ref_matvec a x =
  let sa = Tensor.shape a in
  let m = sa.(0) and k = sa.(1) in
  let ad = Tensor.to_array a and xd = Tensor.to_array x in
  Tensor.of_array [| m |]
    (Array.init m (fun i ->
         let acc = ref 0. in
         for p = 0 to k - 1 do
           acc := !acc +. (ad.((i * k) + p) *. xd.(p))
         done;
         !acc))

let ref_vecmat x b =
  let sb = Tensor.shape b in
  let k = sb.(0) and n = sb.(1) in
  let xd = Tensor.to_array x and bd = Tensor.to_array b in
  let y = Array.make n 0. in
  for p = 0 to k - 1 do
    let xp = xd.(p) in
    if xp <> 0. then
      for j = 0 to n - 1 do
        y.(j) <- y.(j) +. (xp *. bd.((p * n) + j))
      done
  done;
  Tensor.of_array [| n |] y

(* Broadcast binary map through multi-index projection — independent of
   the stride walker and all its fast paths. *)
let ref_map2 f a b =
  let out_shape = Tensor.broadcast_shapes (Tensor.shape a) (Tensor.shape b) in
  let ro = Array.length out_shape in
  let proj t ix =
    let s = Tensor.shape t in
    let r = Array.length s in
    Tensor.get t
      (Array.init r (fun d ->
           let i = ix.(d + ro - r) in
           if s.(d) = 1 then 0 else i))
  in
  Tensor.init out_shape (fun ix -> f (proj a ix) (proj b ix))

(* ------------------------------------------------------------------ *)
(* Generators: dimensions include the degenerate 0 and 1, values include
   exact zeros so the skip branches are exercised. *)

let dim_gen = QCheck.Gen.oneofl [ 0; 1; 2; 3; 5; 8; 17 ]

let val_gen =
  QCheck.Gen.(
    frequency [ (1, return 0.); (4, float_range (-10.) 10.) ])

let mat_gen =
  QCheck.Gen.(
    pair dim_gen dim_gen >>= fun (m, n) ->
    array_size (return (m * n)) val_gen >|= fun data ->
    Tensor.of_array [| m; n |] data)

let matmul_pair_gen =
  QCheck.Gen.(
    dim_gen >>= fun m ->
    dim_gen >>= fun k ->
    dim_gen >>= fun n ->
    array_size (return (m * k)) val_gen >>= fun da ->
    array_size (return (k * n)) val_gen >|= fun db ->
    (Tensor.of_array [| m; k |] da, Tensor.of_array [| k; n |] db))

let arb_matmul_pair =
  QCheck.make
    ~print:(fun (a, b) -> Tensor.to_string a ^ " x " ^ Tensor.to_string b)
    matmul_pair_gen

let prop_matmul_matches_ref =
  QCheck.Test.make ~name:"matmul bit-identical to naive reference" ~count:300
    arb_matmul_pair
    (fun (a, b) -> Tensor.equal (Tensor.matmul a b) (ref_matmul a b))

let prop_matvec_matches_ref =
  QCheck.Test.make ~name:"matvec/vecmat bit-identical to references" ~count:300
    arb_matmul_pair
    (fun (a, b) ->
      (* 2x1: A * first column of b as a vector; 1x2: first row of a. *)
      let sa = Tensor.shape a and sb = Tensor.shape b in
      let v_right = Tensor.init [| sa.(1) |] (fun ix -> float_of_int ix.(0) -. 2.) in
      let v_left = Tensor.init [| sb.(0) |] (fun ix -> float_of_int (ix.(0) mod 3)) in
      Tensor.equal (Tensor.matmul a v_right) (ref_matvec a v_right)
      && Tensor.equal (Tensor.matmul v_left b) (ref_vecmat v_left b))

let prop_matmul_t_matches_transpose =
  QCheck.Test.make
    ~name:"matmul_t/t_matmul bit-identical to transpose formulations"
    ~count:300 arb_matmul_pair
    (fun (a, b) ->
      (* a : m x k, b : k x n. matmul_t wants n x k on the right;
         t_matmul pairs a with an m x n right operand. *)
      let bt = Tensor.transpose b in
      let g =
        Tensor.init
          [| (Tensor.shape a).(0); (Tensor.shape b).(1) |]
          (fun ix -> Float.sin (float_of_int ((ix.(0) * 7) + ix.(1))))
      in
      Tensor.equal (Tensor.matmul_t a bt) (Tensor.matmul a b)
      && Tensor.equal (Tensor.t_matmul a g)
           (Tensor.matmul (Tensor.transpose a) g)
      &&
      let gv = Tensor.init [| (Tensor.shape a).(0) |] (fun ix -> 0.5 *. float_of_int ix.(0)) in
      Tensor.equal (Tensor.t_matmul a gv)
        (Tensor.matmul (Tensor.transpose a) gv))

(* Broadcast-compatible pair: derive the second shape from the first by
   dropping leading dims and turning some dims into 1. *)
let map2_pair_gen =
  QCheck.Gen.(
    oneofl [ [||]; [| 3 |]; [| 4; 3 |]; [| 2; 4; 3 |]; [| 0; 3 |]; [| 2; 1; 3 |] ]
    >>= fun shape_a ->
    int_range 0 (Array.length shape_a) >>= fun drop ->
    let rb = Array.length shape_a - drop in
    let shape_b_base = Array.sub shape_a drop rb in
    flatten_l
      (List.map
         (fun d -> map (fun b -> if b then 1 else d) bool)
         (Array.to_list shape_b_base))
    >>= fun dims_b ->
    let shape_b = Array.of_list dims_b in
    let size s = Array.fold_left ( * ) 1 s in
    array_size (return (size shape_a)) val_gen >>= fun da ->
    array_size (return (size shape_b)) val_gen >|= fun db ->
    (Tensor.of_array shape_a da, Tensor.of_array shape_b db))

let prop_map2_matches_ref =
  QCheck.Test.make ~name:"map2 broadcast bit-identical to projection ref"
    ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> Tensor.to_string a ^ " (+) " ^ Tensor.to_string b)
       map2_pair_gen)
    (fun (a, b) ->
      Tensor.equal (Tensor.add a b) (ref_map2 ( +. ) a b)
      && Tensor.equal (Tensor.add b a) (ref_map2 ( +. ) b a)
      && Tensor.equal (Tensor.mul a b) (ref_map2 ( *. ) a b))

(* ------------------------------------------------------------------ *)
(* Both kernel bodies at tile scale. [Tensor.equal] is structural [=]:
   -0.0 equals 0.0 and a NaN never equals itself, so these compare Int64
   bits. A non-NaN output must keep the reference's bits; where the
   reference has a NaN the body must too (its payload may differ). *)

let bits_match want got =
  Array.length want = Array.length got
  && Array.for_all2
       (fun w g ->
         if Float.is_nan w then Float.is_nan g
         else Int64.equal (Int64.bits_of_float w) (Int64.bits_of_float g))
       want got

(* Raw-array references: A * B and A^T * B skip zero left-operand
   entries, A * B^T (B given as [n x k]) does not. *)
let raw_matmul ~m ~k ~n a b =
  let c = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let aip = a.((i * k) + p) in
      if aip <> 0. then
        for j = 0 to n - 1 do
          c.((i * n) + j) <- c.((i * n) + j) +. (aip *. b.((p * n) + j))
        done
    done
  done;
  c

let raw_matmul_t ~m ~k ~n a b =
  Array.init (m * n) (fun ij ->
      let i = ij / n and j = ij mod n in
      let acc = ref 0. in
      for p = 0 to k - 1 do
        acc := !acc +. (a.((i * k) + p) *. b.((j * k) + p))
      done;
      !acc)

let raw_t_matmul ~m ~k ~n a b =
  let c = Array.make (k * n) 0. in
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let aip = a.((i * k) + p) in
      if aip <> 0. then
        for j = 0 to n - 1 do
          c.((p * n) + j) <- c.((p * n) + j) +. (aip *. b.((i * n) + j))
        done
    done
  done;
  c

(* Every product on every body this CPU runs; [a] is [m x k], [b] is
   [k x n] for A * B and [n x k] for A * B^T, [g] is [m x n]. *)
let bodies_match ~m ~k ~n a b bt g =
  List.for_all
    (fun body ->
      let run f len =
        let c = Array.make len 0. in
        f c;
        c
      in
      bits_match (raw_matmul ~m ~k ~n a b)
        (run (Kernel.matmul_with body ~m ~k ~n a b) (m * n))
      && bits_match (raw_matmul_t ~m ~k ~n a bt)
           (run (Kernel.matmul_t_with body ~m ~k ~n a bt) (m * n))
      && bits_match (raw_t_matmul ~m ~k ~n a g)
           (run (Kernel.t_matmul_with body ~m ~k ~n a g) (k * n)))
    Kernel.bodies

(* Dimensions that straddle the 4 x 8 tile edges, plus the VAE's. At
   most one dimension is large, so a case stays under 300k terms. *)
let small_dim = QCheck.Gen.oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 12; 16; 17; 31; 32; 33 ]
let large_dim = QCheck.Gen.oneofl [ 64; 144; 256 ]

let tile_dims_gen =
  QCheck.Gen.(
    small_dim >>= fun d1 ->
    small_dim >>= fun d2 ->
    small_dim >>= fun d3 ->
    large_dim >>= fun big ->
    oneofl [ (d1, d2, d3); (big, d1, d2); (d1, big, d2); (d1, d2, big) ])

(* Signed zeros and subnormals among ordinary values; [special] adds
   infinities and NaNs. A case draws either kind: with infinities in
   every case, a 256-term sum would almost never stay finite, and the
   term order would go unchecked. *)
let finite_gen =
  QCheck.Gen.(
    frequency
      [ (4, return 0.); (2, return (-0.)); (1, return 4.9e-324);
        (1, return (-2.2e-310)); (1, float_range (-1e-300) 1e-300);
        (30, float_range (-10.) 10.) ])

let special_gen =
  QCheck.Gen.(
    frequency
      [ (1, return infinity); (1, return neg_infinity); (1, return Float.nan);
        (20, finite_gen) ])

(* A sprite batch: 0/1 entries, about 82% zeros. *)
let binary_gen =
  QCheck.Gen.(map (fun u -> if u < 0.82 then 0. else 1.) (float_bound_exclusive 1.))

let arb_tile_case =
  QCheck.make
    ~print:(fun ((m, k, n), _, _, _, _) -> Printf.sprintf "m=%d k=%d n=%d" m k n)
    QCheck.Gen.(
      tile_dims_gen >>= fun (m, k, n) ->
      bool >>= fun special ->
      bool >>= fun binary ->
      let vals = if special then special_gen else finite_gen in
      array_size (return (m * k)) (if binary then binary_gen else vals)
      >>= fun a ->
      array_size (return (k * n)) vals >>= fun b ->
      array_size (return (n * k)) vals >>= fun bt ->
      array_size (return (m * n)) vals >|= fun g ->
      ((m, k, n), a, b, bt, g))

let prop_bodies_match_refs =
  QCheck.Test.make ~name:"kernel bodies keep reference bits at tile scale"
    ~count:150 arb_tile_case
    (fun ((m, k, n), a, b, bt, g) -> bodies_match ~m ~k ~n a b bt g)

(* The 15 products of a batch-256 VAE step, on a sprite-batch image
   operand and dense activations. *)
let vae_layers = [ (144, 64); (64, 10); (64, 10); (10, 64); (64, 144) ]

let test_vae_shapes_bodies () =
  let st = Random.State.make [| 22 |] in
  let dense len = Array.init len (fun _ -> Random.State.float st 2. -. 1.) in
  List.iteri
    (fun l (k, n) ->
      let m = 256 in
      let a =
        if l = 0 then
          Array.init (m * k) (fun _ ->
              if Random.State.float st 1. < 0.82 then 0. else 1.)
        else dense (m * k)
      in
      Alcotest.(check bool)
        (Printf.sprintf "layer %d (%d -> %d) on %s" l k n
           (String.concat "," (List.map Kernel.body_name Kernel.bodies)))
        true
        (bodies_match ~m ~k ~n a (dense (k * n)) (dense (n * k))
           (dense (m * n))))
    vae_layers

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts: the same inputs must produce the
   same bits with 1 domain (inline) and with a real worker pool, for
   sizes on both sides of the fan-out thresholds. *)

let test_parallel_determinism () =
  let det_mat shape seed =
    Tensor.init shape (fun ix ->
        let h = Array.fold_left (fun acc i -> (acc * 31) + i) seed ix in
        Float.sin (float_of_int h))
  in
  let workload () =
    let small_a = det_mat [| 3; 5 |] 1 and small_b = det_mat [| 5; 4 |] 2 in
    (* 256x200x64 = 3.3M mults and 300x300 elementwise both exceed the
       sequential thresholds, so blocks really run on the pool. *)
    let big_a = det_mat [| 256; 200 |] 3 and big_b = det_mat [| 200; 64 |] 4 in
    let big_e = det_mat [| 300; 300 |] 5 in
    let bias = det_mat [| 300 |] 6 in
    (* A VAE layer at batch 256 on a sprite-like image operand, and
       tile-straddling shapes. *)
    let images =
      Tensor.map (fun x -> if x > 0.6 then 1. else 0.) (det_mat [| 256; 144 |] 10)
    in
    let w = det_mat [| 144; 64 |] 11 and g = det_mat [| 256; 64 |] 12 in
    let odd_a = det_mat [| 33; 31 |] 13 and odd_b = det_mat [| 31; 17 |] 14 in
    [ Tensor.matmul images w;
      Tensor.matmul_t g w;
      Tensor.t_matmul images g;
      Tensor.matmul g (Tensor.transpose w);
      Tensor.t_matmul g (det_mat [| 256; 10 |] 15);
      Tensor.matmul odd_a odd_b;
      Tensor.matmul_t odd_a (Tensor.transpose odd_b);
      Tensor.t_matmul odd_a (det_mat [| 33; 9 |] 16);
      Tensor.matmul small_a small_b;
      Tensor.matmul big_a big_b;
      Tensor.matmul_t big_a (Tensor.transpose big_b);
      Tensor.t_matmul big_a (det_mat [| 256; 32 |] 7);
      Tensor.matmul big_a (det_mat [| 200 |] 8);
      Tensor.softplus big_e;
      Tensor.add big_e bias;
      Tensor.mul big_e (det_mat [| 1; 300 |] 9);
      Tensor.broadcast_to bias [| 300; 300 |] ]
  in
  let with_domains d =
    Parallel.set_domains d;
    let r = workload () in
    r
  in
  let seq = with_domains 1 in
  List.iter
    (fun d ->
      let par = with_domains d in
      Alcotest.(check int) "domain count" d (Parallel.domains ());
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "domains=%d result %d" d i)
            true
            (bits_match (Tensor.to_array a) (Tensor.to_array b)
            && Tensor.shape a = Tensor.shape b))
        (List.combine seq par))
    [ 2; 4 ];
  Parallel.set_domains 1

(* ------------------------------------------------------------------ *)
(* In-place API semantics. *)

let test_inplace_ops () =
  let t = Tensor.of_list1 [ 1.; 2. ] in
  Tensor.fill_ t 5.;
  exact_eq "fill_" (Tensor.of_list1 [ 5.; 5. ]) t;
  Tensor.scale_ 2. t;
  exact_eq "scale_" (Tensor.of_list1 [ 10.; 10. ]) t;
  Tensor.add_ t (Tensor.of_list1 [ 1.; 2. ]);
  exact_eq "add_" (Tensor.of_list1 [ 11.; 12. ]) t;
  Tensor.axpy ~alpha:2. ~x:(Tensor.of_list1 [ 1.; 2. ]) t;
  exact_eq "axpy" (Tensor.of_list1 [ 13.; 16. ]) t;
  Tensor.map2_ ( *. ) t (Tensor.of_list1 [ 2.; 0.5 ]);
  exact_eq "map2_" (Tensor.of_list1 [ 26.; 8. ]) t;
  Alcotest.check_raises "add_ shape mismatch"
    (Tensor.Shape_error "add_: [2] vs [3]") (fun () ->
      Tensor.add_ t (Tensor.of_list1 [ 1.; 2.; 3. ]));
  let orig = Tensor.of_list1 [ 1.; 2. ] in
  let c = Tensor.copy orig in
  Tensor.fill_ c 9.;
  exact_eq "copy is deep" (Tensor.of_list1 [ 1.; 2. ]) orig

let test_broadcast_to () =
  let historical t out_shape =
    Tensor.map2 (fun x _ -> x) t (Tensor.zeros out_shape)
  in
  List.iter
    (fun (t, out_shape) ->
      exact_eq "broadcast_to matches historical map2 formulation"
        (historical t out_shape)
        (Tensor.broadcast_to t out_shape))
    [ (Tensor.of_list1 [ 1.; 2.; 3. ], [| 2; 3 |]);
      (Tensor.of_array [| 2; 1 |] [| 5.; 6. |], [| 2; 4 |]);
      (Tensor.of_array [| 1; 3 |] [| 1.; 2.; 3. |], [| 2; 3 |]);
      (Tensor.scalar 7., [| 2; 2 |]);
      (* dims of [t] exceeding the target survive, as with map2 *)
      (Tensor.of_list2 [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ], [| 3 |]) ]

(* ------------------------------------------------------------------ *)
(* AD: in-place accumulation must never corrupt shared buffers. The vjp
   of [add] is the identity, so the first delta a node receives is the
   parent's own gradient buffer. *)

let test_ad_alias_safety () =
  let x = Ad.const (Tensor.of_list1 [ 1.; 2.; 3. ]) in
  let z = Ad.add x x in
  let s = Ad.sum z in
  Ad.backward s;
  exact_eq "grad x accumulated twice" (Tensor.of_list1 [ 2.; 2.; 2. ])
    (Ad.grad x);
  (* z's gradient buffer was shared with x's first delta; the second
     accumulation must not have mutated it. *)
  exact_eq "grad z unchanged" (Tensor.of_list1 [ 1.; 1.; 1. ]) (Ad.grad z)

let test_ad_diamond () =
  (* s = sum (y + y) with y = 2x: every edge delivers an aliased delta. *)
  let x = Ad.const (Tensor.of_list1 [ 1.; -1.; 0.5 ]) in
  let y = Ad.scale 2. x in
  let z = Ad.add y y in
  let s = Ad.sum z in
  Ad.backward s;
  exact_eq "diamond grad x" (Tensor.of_list1 [ 4.; 4.; 4. ]) (Ad.grad x);
  exact_eq "diamond grad y" (Tensor.of_list1 [ 2.; 2.; 2. ]) (Ad.grad y)

let test_deep_tape () =
  (* A 300k-node chain overflows the OCaml stack with a recursive DFS;
     the explicit-stack backward must handle it. *)
  let x = Ad.scalar 1. in
  let y = ref x in
  for _ = 1 to 300_000 do
    y := Ad.add_scalar 0. !y
  done;
  Ad.backward !y;
  check_float "deep chain gradient" 1. (Tensor.to_scalar (Ad.grad x))

(* ------------------------------------------------------------------ *)
(* Optimizer snapshots must be isolated from in-place moment updates. *)

let test_optim_snapshot_isolated () =
  let store = Store.create () in
  Store.ensure store "w" (fun () -> Tensor.of_list1 [ 1.; 2. ]);
  let optim = Optim.adam ~lr:0.1 () in
  let g1 = Tensor.of_list1 [ 0.5; -0.25 ] in
  let g2 = Tensor.of_list1 [ -1.; 0.75 ] in
  Optim.step optim Optim.Descend store [ ("w", g1) ];
  let snap = Optim.snapshot optim in
  let w_at_snap = Tensor.copy (Store.tensor store "w") in
  Optim.step optim Optim.Descend store [ ("w", g2) ];
  let w_after = Tensor.copy (Store.tensor store "w") in
  (* Roll back and replay: if the snapshot shared moment buffers with
     the live state, the first replayed step would see corrupted m/v. *)
  Optim.restore optim snap;
  Store.set store "w" w_at_snap;
  Optim.step optim Optim.Descend store [ ("w", g2) ];
  exact_eq "replayed step matches original" w_after (Store.tensor store "w");
  (* Restoring twice from the same snapshot must also be stable. *)
  Optim.restore optim snap;
  Store.set store "w" w_at_snap;
  Optim.step optim Optim.Descend store [ ("w", g2) ];
  exact_eq "second replay matches too" w_after (Store.tensor store "w")

(* The map2 chain [Optim.step]'s Adam ran before its one-pass loop,
   kept as the reference the loop must match bit for bit. *)
module Ref_adam = struct
  type state = { m : Tensor.t; v : Tensor.t; mutable t : int }

  let step ~lr ~beta1 ~beta2 ~eps ~sign st x g =
    st.t <- st.t + 1;
    let c1 = 1. -. beta1 and c2 = 1. -. beta2 in
    Tensor.map2_ (fun mi gi -> (beta1 *. mi) +. (c1 *. gi)) st.m g;
    Tensor.map2_ (fun vi gi -> (beta2 *. vi) +. (c2 *. (gi *. gi))) st.v g;
    let cm = 1. /. (1. -. (beta1 ** float_of_int st.t)) in
    let cv = 1. /. (1. -. (beta2 ** float_of_int st.t)) in
    let update =
      Tensor.map2
        (fun mi vi -> (cm *. mi) /. (Float.sqrt (cv *. vi) +. eps))
        st.m st.v
    in
    let slr = sign *. lr in
    Tensor.map2 (fun xi ui -> xi +. (slr *. ui)) x update
end

(* Random parameters, moments and step counter (imported as optimizer
   state), then several steps of random gradients in either direction:
   parameters after every step and the final moments must equal the
   reference's Int64 bits. *)
let prop_adam_one_pass =
  let gen =
    QCheck.Gen.(
      int_range 1 40 >>= fun n ->
      let vec lo hi = array_size (return n) (float_range lo hi) in
      vec (-5.) 5. >>= fun x ->
      vec (-1.) 1. >>= fun m ->
      vec 0. 2. >>= fun v ->
      int_range 0 500 >>= fun t0 ->
      bool >>= fun ascend ->
      float_range 1e-4 0.5 >>= fun lr ->
      list_size (int_range 1 12) (vec (-3.) 3.) >|= fun gs ->
      (n, x, m, v, t0, ascend, lr, gs))
  in
  QCheck.Test.make ~name:"adam one pass == map2 chain (Int64)" ~count:200
    (QCheck.make gen) (fun (n, x, m, v, t0, ascend, lr, gs) ->
      let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
      let shape = [| n |] in
      let optim = Optim.adam ~lr () in
      Optim.import_state optim
        [ ("m.w", Tensor.of_array shape m); ("v.w", Tensor.of_array shape v);
          ("t.w", Tensor.scalar (float_of_int t0)) ];
      let store = Store.create () in
      Store.ensure store "w" (fun () -> Tensor.of_array shape x);
      let st =
        { Ref_adam.m = Tensor.of_array shape m; v = Tensor.of_array shape v;
          t = t0 }
      in
      let sign = if ascend then 1. else -1. in
      let direction = if ascend then Optim.Ascend else Optim.Descend in
      let same a b = bits_match (Tensor.to_array a) (Tensor.to_array b) in
      let xr = ref (Tensor.of_array shape x) in
      let params_ok =
        List.for_all
          (fun g ->
            let g = Tensor.of_array shape g in
            Optim.step optim direction store [ ("w", g) ];
            xr := Ref_adam.step ~lr ~beta1 ~beta2 ~eps ~sign st !xr g;
            same !xr (Store.tensor store "w"))
          gs
      in
      let state = Optim.export_state optim in
      params_ok
      && same st.m (List.assoc "m.w" state)
      && same st.v (List.assoc "v.w" state)
      && Tensor.to_scalar (List.assoc "t.w" state)
         = float_of_int (t0 + List.length gs))

(* ------------------------------------------------------------------ *)
(* Rank-0 operands skip the kernels: every named op computes its one
   float directly. It must have the bits the kernel loop gives the same
   op on [1]-shaped operands, on the edge values too. *)

let edge_floats =
  [ 0.; -0.; Float.infinity; Float.neg_infinity; Float.nan; 4.9e-324;
    -4.9e-324; 2.2250738585072009e-308; Float.min_float; Float.max_float;
    -.Float.max_float; 1.; -1.; 0.5; 30.; 30.000000000000004; -745.2; 710. ]

let edge_float_gen =
  QCheck.Gen.(
    frequency
      [ (3, oneofl edge_floats);
        (2, float);
        (2, float_range (-40.) 40.) ])

let prop_rank0_matches_kernels =
  let unary =
    [ ("neg", Tensor.neg); ("scale", Tensor.scale (-1.5));
      ("add_scalar", Tensor.add_scalar 0.25);
      ("pow_scalar", fun t -> Tensor.pow_scalar t 2.5); ("exp", Tensor.exp);
      ("log", Tensor.log); ("sqrt", Tensor.sqrt); ("sigmoid", Tensor.sigmoid);
      ("tanh", Tensor.tanh); ("relu", Tensor.relu);
      ("softplus", Tensor.softplus); ("recip", Tensor.recip);
      ("sigmoid_deriv", Tensor.sigmoid_deriv);
      ("tanh_deriv", Tensor.tanh_deriv); ("relu_deriv", Tensor.relu_deriv) ]
  and binary =
    [ ("add", Tensor.add); ("sub", Tensor.sub); ("mul", Tensor.mul);
      ("div", Tensor.div) ]
  in
  let bits t = Int64.bits_of_float (Tensor.get_flat t 0) in
  let one x = Tensor.of_array [| 1 |] [| x |] in
  QCheck.Test.make ~name:"rank-0 ops keep the kernels' bits" ~count:500
    (QCheck.make
       ~print:(fun (x, y) -> Printf.sprintf "%h, %h" x y)
       QCheck.Gen.(pair edge_float_gen edge_float_gen))
    (fun (x, y) ->
      List.for_all
        (fun (name, f) ->
          let r = f (Tensor.scalar x) in
          Tensor.rank r = 0
          && (Int64.equal (bits r) (bits (f (one x)))
             || QCheck.Test.fail_reportf "%s %h" name x))
        unary
      && List.for_all
           (fun (name, f) ->
             let r = f (Tensor.scalar x) (Tensor.scalar y) in
             Tensor.rank r = 0
             && (Int64.equal (bits r) (bits (f (one x) (one y)))
                || QCheck.Test.fail_reportf "%s %h %h" name x y))
           binary)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matmul_matches_ref; prop_matvec_matches_ref;
      prop_matmul_t_matches_transpose; prop_map2_matches_ref;
      prop_bodies_match_refs; prop_adam_one_pass; prop_rank0_matches_kernels ]

let suites =
  [ ( "kernel",
      [ Alcotest.test_case "parallel determinism" `Quick
          test_parallel_determinism;
        Alcotest.test_case "in-place ops" `Quick test_inplace_ops;
        Alcotest.test_case "broadcast_to" `Quick test_broadcast_to;
        Alcotest.test_case "ad alias safety" `Quick test_ad_alias_safety;
        Alcotest.test_case "ad diamond" `Quick test_ad_diamond;
        Alcotest.test_case "deep tape" `Quick test_deep_tape;
        Alcotest.test_case "optim snapshot isolation" `Quick
          test_optim_snapshot_isolated;
        Alcotest.test_case "kernel bodies on VAE shapes" `Quick
          test_vae_shapes_bodies ]
      @ qcheck_cases ) ]

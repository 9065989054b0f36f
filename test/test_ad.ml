(* Reverse-mode AD tests: every vjp is validated against central finite
   differences, plus structural tests for stop_grad / custom nodes. *)

let check_grad ?(tol = 1e-4) name f x =
  (* f : Ad.t -> Ad.t (scalar output); x : Tensor.t input. *)
  let leaf = Ad.const x in
  let out = f leaf in
  Ad.backward out;
  let analytic = Ad.grad leaf in
  let numeric = Ad.finite_diff_grad (fun xv -> Ad.to_float (f (Ad.const xv))) x in
  if not (Tensor.approx_equal ~tol analytic numeric) then
    Alcotest.failf "%s: analytic %s vs numeric %s" name
      (Tensor.to_string analytic) (Tensor.to_string numeric)

let vec = Tensor.of_list1 [ 0.3; -1.2; 2.5 ]
let pos_vec = Tensor.of_list1 [ 0.3; 1.2; 2.5 ]
let mat = Tensor.of_list2 [ [ 0.5; -0.25 ]; [ 1.5; 2.0 ] ]

let test_unary_grads () =
  check_grad "exp" (fun x -> Ad.sum (Ad.exp x)) vec;
  check_grad "log" (fun x -> Ad.sum (Ad.log x)) pos_vec;
  check_grad "sqrt" (fun x -> Ad.sum (Ad.sqrt x)) pos_vec;
  check_grad "sigmoid" (fun x -> Ad.sum (Ad.sigmoid x)) vec;
  check_grad "tanh" (fun x -> Ad.sum (Ad.tanh x)) vec;
  check_grad "softplus" (fun x -> Ad.sum (Ad.softplus x)) vec;
  check_grad "relu away from kink" (fun x -> Ad.sum (Ad.relu x)) vec;
  check_grad "neg" (fun x -> Ad.sum (Ad.neg x)) vec;
  check_grad "scale" (fun x -> Ad.sum (Ad.scale 3.5 x)) vec;
  check_grad "add_scalar" (fun x -> Ad.sum (Ad.add_scalar 2. x)) vec;
  check_grad "pow 3" (fun x -> Ad.sum (Ad.pow_scalar x 3.)) pos_vec

let test_binary_grads () =
  let c = Ad.const (Tensor.of_list1 [ 1.5; 0.5; -0.7 ]) in
  check_grad "add" (fun x -> Ad.sum (Ad.add x c)) vec;
  check_grad "sub" (fun x -> Ad.sum (Ad.sub x c)) vec;
  check_grad "mul" (fun x -> Ad.sum (Ad.mul x c)) vec;
  check_grad "div" (fun x -> Ad.sum (Ad.div x c)) vec;
  check_grad "div denominator" (fun x -> Ad.sum (Ad.div c x)) pos_vec

let test_both_sides_of_mul () =
  (* Gradient flows to both operands when they are the same node. *)
  let x = Ad.const (Tensor.scalar 3.) in
  let y = Ad.mul x x in
  Ad.backward y;
  Alcotest.(check (float 1e-9)) "d(x^2)/dx = 2x" 6.
    (Tensor.to_scalar (Ad.grad x))

let test_broadcast_grad () =
  (* Broadcast a scalar across a vector; its gradient is the sum. *)
  let s = Ad.const (Tensor.scalar 2.) in
  let v = Ad.const vec in
  let out = Ad.sum (Ad.mul s v) in
  Ad.backward out;
  Alcotest.(check (float 1e-9)) "scalar grad is sum of vec"
    (Tensor.sum vec)
    (Tensor.to_scalar (Ad.grad s));
  (* Row broadcast against a matrix. *)
  let row = Ad.const (Tensor.of_array [| 1; 2 |] [| 1.; 2. |]) in
  let m = Ad.const mat in
  let out2 = Ad.sum (Ad.mul row m) in
  Ad.backward out2;
  let expected = Tensor.of_array [| 1; 2 |] [| 0.5 +. 1.5; -0.25 +. 2.0 |] in
  Alcotest.(check bool) "row grad sums columns" true
    (Tensor.approx_equal ~tol:1e-9 (Ad.grad row) expected)

let test_matmul_grads () =
  check_grad "matmul lhs"
    (fun x -> Ad.sum (Ad.matmul x (Ad.const mat)))
    (Tensor.of_list2 [ [ 1.; 2. ]; [ 3.; 4. ] ]);
  check_grad "matmul rhs"
    (fun x -> Ad.sum (Ad.matmul (Ad.const mat) x))
    (Tensor.of_list2 [ [ 1.; 2. ]; [ 3.; 4. ] ]);
  check_grad "matvec" (fun x -> Ad.sum (Ad.matmul (Ad.const mat) x))
    (Tensor.of_list1 [ 1.; -1. ]);
  check_grad "vecmat" (fun x -> Ad.sum (Ad.matmul x (Ad.const mat)))
    (Tensor.of_list1 [ 1.; -1. ]);
  check_grad "dot" (fun x -> Ad.dot x (Ad.const vec)) vec;
  check_grad "transpose" (fun x -> Ad.sum (Ad.matmul (Ad.transpose x) x)) mat

let test_reductions () =
  check_grad "sum" Ad.sum vec;
  check_grad "mean" Ad.mean vec;
  check_grad "logsumexp" Ad.logsumexp vec;
  check_grad "log_softmax pick"
    (fun x -> Ad.get (Ad.log_softmax x) [| 1 |])
    vec

let test_structural_grads () =
  check_grad "reshape" (fun x -> Ad.sum (Ad.pow_scalar (Ad.reshape [| 4 |] x) 2.)) mat;
  check_grad "slice0" (fun x -> Ad.sum (Ad.slice0 x 1)) mat;
  check_grad "get" (fun x -> Ad.get x [| 1; 0 |]) mat;
  check_grad "concat" (fun x -> Ad.sum (Ad.concat0 [ x; Ad.const mat ])) mat;
  check_grad "stack" (fun x -> Ad.sum (Ad.stack0 [ x; Ad.const vec ])) vec

let test_stop_grad () =
  let x = Ad.const (Tensor.scalar 2.) in
  let y = Ad.mul (Ad.stop_grad x) x in
  Ad.backward y;
  (* d/dx of stop(x) * x = stop(x) = 2, not 2x = 4. *)
  Alcotest.(check (float 1e-9)) "stop_grad blocks one path" 2.
    (Tensor.to_scalar (Ad.grad x))

let test_magic_box_identity () =
  (* The DiCE construction: y + stop(y)*(l - stop l) has the value of y and
     gradient dy + y dl. *)
  let theta = Ad.const (Tensor.scalar 1.5) in
  let y = Ad.mul theta theta in
  let l = Ad.scale 3. theta in
  let surrogate =
    Ad.add y (Ad.mul (Ad.stop_grad y) (Ad.sub l (Ad.stop_grad l)))
  in
  Alcotest.(check (float 1e-9)) "value unchanged" 2.25 (Ad.to_float surrogate);
  Ad.backward surrogate;
  (* dy/dtheta = 2*1.5 = 3; y*dl/dtheta = 2.25*3 = 6.75; total 9.75 *)
  Alcotest.(check (float 1e-9)) "gradient includes score term" 9.75
    (Tensor.to_scalar (Ad.grad theta))

let test_custom_node () =
  let x = Ad.const (Tensor.scalar 3.) in
  (* A custom node computing x^2 with a hand-written vjp. *)
  let y =
    Ad.custom
      ~value:(Tensor.scalar 9.)
      ~parents:[ (x, fun g -> Tensor.scale (2. *. 3.) g) ]
  in
  Ad.backward y;
  Alcotest.(check (float 1e-9)) "custom vjp" 6. (Tensor.to_scalar (Ad.grad x))

let test_shared_subexpression () =
  (* Diamond graph: z = (x + x) * (x + x); dz/dx = 8x. *)
  let x = Ad.const (Tensor.scalar 2.) in
  let s = Ad.add x x in
  let z = Ad.mul s s in
  Ad.backward z;
  Alcotest.(check (float 1e-9)) "diamond" 16. (Tensor.to_scalar (Ad.grad x))

let test_mlp_grad_check () =
  (* A small two-layer network, gradient-checked end to end. *)
  let w2 = Ad.const (Tensor.of_list2 [ [ 0.3 ]; [ -0.6 ] ]) in
  let f w1 =
    let h = Ad.tanh (Ad.matmul (Ad.const mat) w1) in
    Ad.sum (Ad.sigmoid (Ad.matmul h w2))
  in
  check_grad "mlp w1" f (Tensor.of_list2 [ [ 0.1; -0.2 ]; [ 0.4; 0.3 ] ])

let test_non_scalar_backward_rejected () =
  Alcotest.(check bool) "non-scalar root raises" true
    (try
       Ad.backward (Ad.const vec);
       false
     with Invalid_argument _ -> true)

let test_add_list () =
  let xs = List.map (fun v -> Ad.const (Tensor.scalar v)) [ 1.; 2.; 3. ] in
  Alcotest.(check (float 1e-9)) "add_list" 6. (Ad.to_float (Ad.add_list xs));
  Alcotest.(check (float 1e-9)) "add_list empty" 0.
    (Ad.to_float (Ad.add_list []))

(* ------------------------------------------------------------------ *)
(* The tape-free scope. *)

let tensor_bits t = Array.map Int64.bits_of_float (Tensor.to_array t)

(* Every op of the module over fresh leaves, returning each result. *)
let every_op data =
  let x = Ad.const (Tensor.of_array [| 3 |] data) in
  let m = Ad.const mat in
  let s = Ad.scalar data.(0) in
  let open Ad.O in
  let results =
    [ x + s; x - s; x * x; x / Ad.add_scalar 3. x; -x; Ad.scale 0.7 x;
      Ad.add_scalar 0.1 x; Ad.exp x; Ad.log x; Ad.sqrt x; Ad.sigmoid x;
      Ad.tanh x; Ad.relu (Ad.add_scalar (-1.) x); Ad.softplus x;
      Ad.pow_scalar x 1.5; Ad.sum x; Ad.mean x; Ad.dot x x;
      Ad.matmul m m; Ad.matmul m (Ad.slice0 m 0); Ad.transpose m;
      Ad.logsumexp x; Ad.sum_axis 0 m; Ad.logsumexp_axis 1 m;
      Ad.bernoulli_logits_scores ~x:(Tensor.of_list1 [ 1.; 0.; 1. ]) x;
      Ad.log_softmax x; Ad.reshape [| 3; 1 |] x; Ad.concat0 [ x; x ];
      Ad.stack0 [ x; x ]; Ad.get m [| 1; 0 |]; Ad.add_list [ x; x; x ];
      Ad.custom ~value:(Tensor.scale 2. (Ad.value x))
        ~parents:[ (x, Tensor.scale 2.) ];
      Ad.checkpoint (fun () -> Ad.sum (Ad.exp x)); Ad.stop_grad (x * x) ]
  in
  (x, results)

let arb_pos3 =
  QCheck.make
    ~print:(fun a -> Tensor.to_string (Tensor.of_array [| 3 |] a))
    QCheck.Gen.(array_size (return 3) (float_range 0.1 3.))

let prop_primal_bits =
  QCheck.Test.make ~name:"primal scope computes taped bits" ~count:40 arb_pos3
    (fun data ->
      let bits_of (_, rs) = List.map (fun r -> tensor_bits (Ad.value r)) rs in
      bits_of (every_op data) = bits_of (Ad.primal (fun () -> every_op data)))

let test_primal_leaves () =
  let verdicts () =
    let x, results = every_op [| 0.5; 1.5; 2.5 |] in
    let ops = List.filteri (fun i _ -> i < List.length results - 1) results in
    ( Ad.is_leaf x,
      Ad.is_leaf (Ad.scalar 1.),
      Ad.is_leaf (Ad.stop_grad (Ad.exp x)),
      List.map Ad.is_leaf ops )
  in
  let taped = verdicts () and untaped = Ad.primal verdicts in
  Alcotest.(check bool) "same verdicts" true (taped = untaped);
  let const_leaf, scalar_leaf, stop_leaf, ops = untaped in
  Alcotest.(check bool) "const, scalar and stop_grad are leaves" true
    (const_leaf && scalar_leaf && stop_leaf);
  Alcotest.(check bool) "op results are not leaves" true
    (List.for_all not ops)

let test_primal_no_gradient () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "backward on a primal root raises" true
    (raises (fun () ->
         Ad.backward (Ad.primal (fun () -> Ad.sum (Ad.exp (Ad.const vec))))));
  Alcotest.(check bool) "backward on a primal leaf raises" true
    (raises (fun () -> Ad.backward (Ad.primal (fun () -> Ad.scalar 1.))));
  (* A value built inside is a constant to a later taped backward: the
     gradient of [p * q] with [q = primal (3p)] is [q], not [6p]. *)
  let p = Ad.scalar 2. in
  let q = Ad.primal (fun () -> Ad.scale 3. p) in
  let r = Ad.mul p q in
  Ad.backward r;
  Alcotest.(check (float 0.)) "primal operand is constant" 6.
    (Tensor.to_scalar (Ad.grad p));
  (* A barrier whose thunk returns an untaped value keeps a copy of it
     that later segments cannot recycle. *)
  let c = Ad.checkpoint (fun () -> Ad.primal (fun () -> Ad.exp (Ad.const vec))) in
  let before = tensor_bits (Ad.value c) in
  ignore (Ad.checkpoint (fun () -> Ad.sum (Ad.log (Ad.const pos_vec))));
  Alcotest.(check bool) "untaped barrier root keeps its value" true
    (tensor_bits (Ad.value c) = before && not (Ad.is_leaf c));
  (* Asking for an id does not make an untaped node taped. *)
  let q' = Ad.primal (fun () -> Ad.exp p) in
  Alcotest.(check bool) "untaped ids are negative and stable" true
    (Ad.id q' < 0 && Ad.id q' = Ad.id q');
  let p' = Ad.scalar 0.5 in
  let r' = Ad.mul p' q' in
  Ad.backward r';
  Alcotest.(check (float 0.)) "still constant after Ad.id"
    (Tensor.to_scalar (Ad.value q'))
    (Tensor.to_scalar (Ad.grad p'))

exception Boom

let taped_now () =
  let n0 = Ad.node_count () in
  ignore (Ad.exp (Ad.scalar 1.));
  Ad.node_count () > n0

let test_primal_scoping () =
  Alcotest.(check bool) "taped outside" true (taped_now ());
  Ad.primal (fun () ->
      Alcotest.(check bool) "untaped inside" false (taped_now ());
      Ad.primal (fun () ->
          Alcotest.(check bool) "untaped nested" false (taped_now ()));
      Alcotest.(check bool) "still untaped after the inner scope" false
        (taped_now ());
      (try Ad.primal (fun () -> raise Boom) with Boom -> ());
      Alcotest.(check bool) "still untaped after an inner raise" false
        (taped_now ()));
  Alcotest.(check bool) "taped after the scope" true (taped_now ());
  (try Ad.primal (fun () -> raise Boom) with Boom -> ());
  Alcotest.(check bool) "restored after a raising thunk" true (taped_now ());
  (* Domain-local: another domain keeps taping while this one is in the
     scope. *)
  let other =
    Ad.primal (fun () -> Domain.join (Domain.spawn taped_now))
  in
  Alcotest.(check bool) "other domains stay taped" true other

let test_node_count_taped_only () =
  let x = Ad.const vec in
  let n0 = Ad.node_count () in
  ignore (Ad.primal (fun () -> snd (every_op [| 0.5; 1.5; 2.5 |])));
  ignore (Ad.primal (fun () -> Ad.sum (Ad.mul x x)));
  Alcotest.(check int) "nothing counted in the scope" n0 (Ad.node_count ());
  ignore (Ad.sum (Ad.mul x x));
  Alcotest.(check int) "taped ops counted" (n0 + 2) (Ad.node_count ())

(* Property: random expression trees gradient-check. *)

let arb_vec3 =
  QCheck.make
    ~print:(fun a -> Tensor.to_string (Tensor.of_array [| 3 |] a))
    QCheck.Gen.(array_size (return 3) (float_range 0.2 2.))

let prop_random_expression =
  QCheck.Test.make ~name:"random smooth expressions grad-check" ~count:60
    arb_vec3 (fun data ->
      let x = Tensor.of_array [| 3 |] data in
      let f x =
        Ad.O.(
          Ad.sum (Ad.exp (Ad.scale 0.3 x) * Ad.sigmoid x)
          + Ad.logsumexp x
          - Ad.mean (Ad.tanh x))
      in
      let leaf = Ad.const x in
      let out = f leaf in
      Ad.backward out;
      let analytic = Ad.grad leaf in
      let numeric =
        Ad.finite_diff_grad (fun xv -> Ad.to_float (f (Ad.const xv))) x
      in
      Tensor.approx_equal ~tol:1e-3 analytic numeric)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_random_expression; prop_primal_bits ]

(* [backward] sweeps each interior node once, however many paths reach
   it: a diamond over [t] reused [k] times hands [t] its deltas once
   each, and [t] passes their sum on once. Swept interior nodes retire;
   the leaf stays counted live. *)
let test_backward_visits_once () =
  List.iter
    (fun k ->
      Ad.reset_live_stats ();
      let x = Ad.scalar 0.5 in
      let t = Ad.scale 2. x in
      let d = Ad.add (Ad.exp t) (Ad.mul t t) in
      let root = Ad.add_list (List.init k (fun _ -> d)) in
      (* t, exp, mul, the diamond's add, and k - 1 adds over it. *)
      let interior = 4 + (k - 1) in
      Alcotest.(check int) "live before" (interior + 1) (Ad.live_node_count ());
      Ad.backward root;
      (* d d / d x = 2 (exp 2x + 4x) per use, at x = 0.5. *)
      let want = 2. *. ((float_of_int k *. Float.exp 1.) +. float_of_int (2 * k)) in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "grad x, k = %d" k)
        want
        (Tensor.to_scalar (Ad.grad x));
      Alcotest.(check int) "live after" 1 (Ad.live_node_count ()))
    [ 1; 2; 5 ]

(* Two [backward] calls in a row over graphs sharing the interior node
   [y = x * x]. The second sweep must enter [y] again, whatever the
   first one marked it with; as with any node, [y] then passes on all
   it has accumulated (3 from the first root, 1 from the second). *)
let test_backward_overlapping_sweeps () =
  let x = Ad.scalar 2. in
  let y = Ad.mul x x in
  Ad.backward (Ad.scale 3. y);
  let g t = Tensor.to_scalar (Ad.grad t) in
  Alcotest.(check (float 0.)) "first: y" 3. (g y);
  Alcotest.(check (float 0.)) "first: x = 3 * 2x" 12. (g x);
  Ad.backward (Ad.add y x);
  Alcotest.(check (float 0.)) "second: y = 3 + 1" 4. (g y);
  Alcotest.(check (float 0.)) "second: x = 12 + 1 + 4 * 2x" 29. (g x)

let suites =
  [ ( "ad",
      [ Alcotest.test_case "unary grads" `Quick test_unary_grads;
        Alcotest.test_case "backward visits each interior node once" `Quick
          test_backward_visits_once;
        Alcotest.test_case "overlapping backward calls" `Quick
          test_backward_overlapping_sweeps;
        Alcotest.test_case "binary grads" `Quick test_binary_grads;
        Alcotest.test_case "mul both sides" `Quick test_both_sides_of_mul;
        Alcotest.test_case "broadcast grads" `Quick test_broadcast_grad;
        Alcotest.test_case "matmul grads" `Quick test_matmul_grads;
        Alcotest.test_case "reductions" `Quick test_reductions;
        Alcotest.test_case "structural grads" `Quick test_structural_grads;
        Alcotest.test_case "stop_grad" `Quick test_stop_grad;
        Alcotest.test_case "magic-box identity" `Quick test_magic_box_identity;
        Alcotest.test_case "custom node" `Quick test_custom_node;
        Alcotest.test_case "shared subexpression" `Quick
          test_shared_subexpression;
        Alcotest.test_case "mlp grad check" `Quick test_mlp_grad_check;
        Alcotest.test_case "non-scalar backward" `Quick
          test_non_scalar_backward_rejected;
        Alcotest.test_case "add_list" `Quick test_add_list;
        Alcotest.test_case "primal scope keeps leaf verdicts" `Quick
          test_primal_leaves;
        Alcotest.test_case "primal values carry no gradient" `Quick
          test_primal_no_gradient;
        Alcotest.test_case "primal scope nests and restores" `Quick
          test_primal_scoping;
        Alcotest.test_case "node_count counts taped nodes only" `Quick
          test_node_count_taped_only ]
      @ qcheck_cases ) ]

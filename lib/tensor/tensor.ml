(* Row-major strides are computed once per tensor and cached in the
   record, so indexed access and broadcast planning never recompute
   them. All construction funnels through [mk]. *)
type t = { shape : int array; data : float array; st : int array }

exception Shape_error of string

let shape_error fmt = Format.kasprintf (fun s -> raise (Shape_error s)) fmt

let shape_size shape = Array.fold_left ( * ) 1 shape

let pp_shape ppf shape =
  Format.fprintf ppf "[%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int shape)))

(* Row-major strides for a shape. *)
let strides shape =
  let r = Array.length shape in
  let st = Array.make r 1 in
  for i = r - 2 downto 0 do
    st.(i) <- st.(i + 1) * shape.(i + 1)
  done;
  st

let mk shape data = { shape; data; st = strides shape }

(* ------------------------------------------------------------------ *)
(* Buffer pool.

   A pool is a set of size classes keyed by exact buffer length. Each
   class holds its buffers in a growable pointer array with a cursor:
   [alloc] hands out the buffer at the cursor — in steady state this
   touches no allocator at all, only a bounds check and a zero fill —
   and [reset] rewinds every cursor to zero. A checkpointed segment
   therefore recycles the previous segment's buffers instead of
   re-allocating them, and the pool's own bookkeeping contributes
   {e zero} minor words on the hot path (the classic free-list design
   conses a cell per hand-out, which costs more minor allocation than
   it saves for mostly-major-heap tensor buffers).

   Handed-out buffers are zero-filled, so pooled execution is
   bit-identical to fresh allocation. Soundness is the caller's
   contract: [reset] must only run once no tensor built from the
   previous generation's buffers is referenced any longer ([Ad]'s
   segment pool resets only at checkpoint depth 0, once the previous
   segment is consumed). The ambient pool is domain-local state;
   worker domains spawned by [Parallel] never see the coordinating
   domain's pool. *)

module Pool = struct
  type slot = {
    mutable bufs : float array array;  (* capacity; first [len] live *)
    mutable len : int;
    mutable cursor : int;  (* next buffer to hand out; <= len *)
  }

  type t = {
    classes : (int, slot) Hashtbl.t;
    mutable slots : slot list;  (* every class, for alloc-free reset *)
    mutable hits : int;
    mutable misses : int;
    mutable floats : int;  (* total floats owned by the pool *)
  }

  let create () =
    { classes = Hashtbl.create 32;
      slots = [];
      hits = 0;
      misses = 0;
      floats = 0 }

  let class_of p n =
    match Hashtbl.find p.classes n with
    | s -> s
    | exception Not_found ->
      let s = { bufs = [||]; len = 0; cursor = 0 } in
      Hashtbl.add p.classes n s;
      p.slots <- s :: p.slots;
      s

  let push s buf =
    if s.len = Array.length s.bufs then begin
      let grown = Array.make (Stdlib.max 4 (2 * s.len)) [||] in
      Array.blit s.bufs 0 grown 0 s.len;
      s.bufs <- grown
    end;
    s.bufs.(s.len) <- buf;
    s.len <- s.len + 1

  let alloc p n =
    let s = class_of p n in
    if s.cursor < s.len then begin
      let buf = s.bufs.(s.cursor) in
      s.cursor <- s.cursor + 1;
      p.hits <- p.hits + 1;
      Array.fill buf 0 n 0.;
      buf
    end
    else begin
      p.misses <- p.misses + 1;
      p.floats <- p.floats + n;
      let buf = Array.make n 0. in
      push s buf;
      s.cursor <- s.len;
      buf
    end

  let reset p = List.iter (fun s -> s.cursor <- 0) p.slots

  let hits p = p.hits
  let misses p = p.misses
  let floats p = p.floats
end

(* The ambient pool. Domain-local so a pool installed on the
   coordinating domain is invisible to [Parallel] workers (which only
   ever write into caller-allocated buffers anyway). *)
let pool_key : Pool.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current_pool () = Domain.DLS.get pool_key
let set_pool p = Domain.DLS.set pool_key p

(* Every op-output allocation funnels through here (the zero fill is
   what [Array.make n 0.] provided). Copy-semantics constructors
   ([of_array], [copy], [to_array]) deliberately do not: their results
   are the ones callers retain across steps. *)
let alloc n =
  match Domain.DLS.get pool_key with
  | Some p -> Pool.alloc p n
  | None -> Array.make n 0.

(* Construction *)

let of_array shape data =
  let n = shape_size shape in
  if Array.length data <> n then
    shape_error "of_array: %d elements for shape %a" (Array.length data)
      pp_shape shape;
  mk (Array.copy shape) (Array.copy data)

let scalar x = mk [||] [| x |]
let zeros shape = mk (Array.copy shape) (alloc (shape_size shape))

let filled shape x =
  let n = shape_size shape in
  let data = alloc n in
  Array.fill data 0 n x;
  mk (Array.copy shape) data

let ones shape = filled shape 1.
let full shape x = filled shape x

let of_list1 xs = of_array [| List.length xs |] (Array.of_list xs)

let of_list2 rows =
  match rows with
  | [] -> mk [| 0; 0 |] [||]
  | first :: _ ->
    let ncols = List.length first in
    let nrows = List.length rows in
    let data = Array.make (nrows * ncols) 0. in
    List.iteri
      (fun i row ->
        if List.length row <> ncols then
          shape_error "of_list2: ragged row %d" i;
        List.iteri (fun j x -> data.((i * ncols) + j) <- x) row)
      rows;
    mk [| nrows; ncols |] data

let flat_index shape st ix =
  if Array.length ix <> Array.length shape then
    shape_error "index rank %d for shape %a" (Array.length ix) pp_shape shape;
  let off = ref 0 in
  Array.iteri
    (fun d i ->
      if i < 0 || i >= shape.(d) then
        shape_error "index %d out of bounds in dim %d of %a" i d pp_shape shape;
      off := !off + (i * st.(d)))
    ix;
  !off

let init shape f =
  let n = shape_size shape in
  let r = Array.length shape in
  let ix = Array.make r 0 in
  let data = alloc n in
  for flat = 0 to n - 1 do
    data.(flat) <- f ix;
    (* advance the multi-index, rightmost dimension fastest *)
    let d = ref (r - 1) in
    let carry = ref true in
    while !carry && !d >= 0 do
      ix.(!d) <- ix.(!d) + 1;
      if ix.(!d) >= shape.(!d) then begin
        ix.(!d) <- 0;
        decr d
      end
      else carry := false
    done
  done;
  mk (Array.copy shape) data

let eye n = init [| n; n |] (fun ix -> if ix.(0) = ix.(1) then 1. else 0.)

(* Inspection *)

let shape t = Array.copy t.shape
let rank t = Array.length t.shape
let size t = Array.length t.data
let same_shape a b = a.shape = b.shape
let get t ix = t.data.(flat_index t.shape t.st ix)
let get_flat t i = t.data.(i)

let to_scalar t =
  if Array.length t.data <> 1 then
    shape_error "to_scalar: shape %a" pp_shape t.shape;
  t.data.(0)

let to_array t = Array.copy t.data
let is_scalar t = Array.length t.data = 1 && Array.length t.shape = 0

(* In-place operations. These mutate the tensor's buffer directly; the
   caller must own that buffer exclusively. Beware that [reshape] and
   [flatten] share buffers with their argument. *)

let copy t = { t with data = Array.copy t.data }

let fill_ t x = Kernel.fill t.data x
let scale_ c t = Kernel.scale_into c t.data

let require_same_shape name dst src =
  if dst.shape <> src.shape then
    shape_error "%s: %a vs %a" name pp_shape dst.shape pp_shape src.shape

let add_ dst src =
  require_same_shape "add_" dst src;
  Kernel.add_into dst.data src.data

let axpy ~alpha ~x y =
  require_same_shape "axpy" y x;
  Kernel.axpy_into alpha x.data y.data

let map2_ f dst src =
  require_same_shape "map2_" dst src;
  Kernel.map2_into f dst.data src.data dst.data

(* Elementwise *)

let map f t =
  let out = alloc (Array.length t.data) in
  Kernel.map_into f t.data out;
  { t with data = out }

let broadcast_shapes a b =
  let ra = Array.length a and rb = Array.length b in
  let r = Stdlib.max ra rb in
  Array.init r (fun i ->
      let da = if i + ra - r >= 0 then a.(i + ra - r) else 1 in
      let db = if i + rb - r >= 0 then b.(i + rb - r) else 1 in
      if da = db then da
      else if da = 1 then db
      else if db = 1 then da
      else shape_error "broadcast: %a vs %a" pp_shape a pp_shape b)

(* Map a flat index in [out_shape] to the flat index in [shape] obtained
   by broadcasting: broadcast dimensions contribute stride 0. *)
let broadcast_strides_of shape st out_shape =
  let r = Array.length out_shape and rs = Array.length shape in
  Array.init r (fun i ->
      let j = i + rs - r in
      if j < 0 || shape.(j) = 1 then 0 else st.(j))

(* Broadcast plans — the output shape and both operands' broadcast
   strides — are memoized per shape pair, so repeated binary maps over
   the same shapes (each training step replays the same graph) skip the
   planning arithmetic. Guarded by a mutex: plans may be requested while
   worker domains exist, and the table is shared. *)

type bplan = { out_shape : int array; sa : int array; sb : int array }

let plan_table : (int array * int array, bplan) Hashtbl.t = Hashtbl.create 64
let plan_mutex = Mutex.create ()

let broadcast_plan a b =
  Mutex.lock plan_mutex;
  let found = Hashtbl.find_opt plan_table (a.shape, b.shape) in
  Mutex.unlock plan_mutex;
  match found with
  | Some p -> p
  | None ->
    (* Built outside the lock: [broadcast_shapes] raises on incompatible
       shapes, and an exception must not leave the mutex held. *)
    let out_shape = broadcast_shapes a.shape b.shape in
    let p =
      { out_shape;
        sa = broadcast_strides_of a.shape a.st out_shape;
        sb = broadcast_strides_of b.shape b.st out_shape }
    in
    Mutex.lock plan_mutex;
    if Hashtbl.length plan_table > 1024 then Hashtbl.reset plan_table;
    Hashtbl.add plan_table (Array.copy a.shape, Array.copy b.shape) p;
    Mutex.unlock plan_mutex;
    p

(* The last dimensions coincide and every other dimension of [b] is
   missing: [b] tiles along rows of [a]. *)
let row_broadcast a b =
  let ra = Array.length a.shape in
  Array.length b.shape = 1 && ra >= 1
  && a.shape.(ra - 1) = b.shape.(0)
  && Array.length b.data > 0

let map2 f a b =
  if a.shape = b.shape then begin
    let out = alloc (Array.length a.data) in
    Kernel.map2_into f a.data b.data out;
    { a with data = out }
  end
  else if Array.length b.data = 1 && Array.length b.shape <= Array.length a.shape
  then begin
    (* [b] broadcasts as a scalar over [a]. *)
    let c = b.data.(0) in
    let out = alloc (Array.length a.data) in
    Kernel.map_into (fun x -> f x c) a.data out;
    { a with data = out }
  end
  else if Array.length a.data = 1 && Array.length a.shape <= Array.length b.shape
  then begin
    let c = a.data.(0) in
    let out = alloc (Array.length b.data) in
    Kernel.map_into (fun y -> f c y) b.data out;
    { b with data = out }
  end
  else if row_broadcast a b then begin
    (* Common bias-add pattern: [| ...; n |] (+) [| n |]. *)
    let n = b.shape.(0) in
    let out = alloc (Array.length a.data) in
    let rows = Array.length a.data / n in
    for r = 0 to rows - 1 do
      let base = r * n in
      for j = 0 to n - 1 do
        out.(base + j) <- f a.data.(base + j) b.data.(j)
      done
    done;
    { a with data = out }
  end
  else begin
    let { out_shape; sa; sb } = broadcast_plan a b in
    let data = alloc (shape_size out_shape) in
    Kernel.broadcast_map2_into f a.data sa b.data sb out_shape data;
    mk out_shape data
  end

let broadcast_to t out_shape =
  (* Like the historical [map2 (fun x _ -> x) t (zeros out_shape)], but
     without materializing (or walking) a throwaway zero tensor: only
     broadcast strides of [t] are needed. Shapes must be
     broadcast-compatible; dimensions of [t] exceeding [out_shape]
     survive into the result, as with [map2]. *)
  let bshape = broadcast_shapes t.shape out_shape in
  let sst = broadcast_strides_of t.shape t.st bshape in
  let data = alloc (shape_size bshape) in
  Kernel.broadcast_copy_into t.data sst bshape data;
  mk bshape data

(* Arithmetic. The named ops route through the specialized kernels in
   [Kernel] rather than the generic closure-taking [map]/[map2]: without
   flambda a [float -> float] closure call boxes its argument and result,
   which on the training hot path costs more in allocation (and GC) than
   the arithmetic itself. Results are bit-identical — the kernels inline
   the exact float expressions the closures computed. *)

let unary k t =
  let out = alloc (Array.length t.data) in
  k t.data out;
  { t with data = out }

(* Binary op with the same shape/broadcast dispatch as [map2], but with
   one specialized kernel per leg shape. [same]/[aconst]/[consta]/[row]
   cover the dispatch cases; exotic broadcasts fall back to the generic
   strided walk with the op as a closure. *)
let binary ~same ~aconst ~consta ~row ~f a b =
  if a.shape = b.shape then begin
    let out = alloc (Array.length a.data) in
    same a.data b.data out;
    { a with data = out }
  end
  else if Array.length b.data = 1 && Array.length b.shape <= Array.length a.shape
  then begin
    let c = b.data.(0) in
    let out = alloc (Array.length a.data) in
    aconst a.data c out;
    { a with data = out }
  end
  else if Array.length a.data = 1 && Array.length a.shape <= Array.length b.shape
  then begin
    let c = a.data.(0) in
    let out = alloc (Array.length b.data) in
    consta c b.data out;
    { b with data = out }
  end
  else if row_broadcast a b then begin
    let n = b.shape.(0) in
    let out = alloc (Array.length a.data) in
    row a.data b.data n out;
    { a with data = out }
  end
  else begin
    let { out_shape; sa; sb } = broadcast_plan a b in
    let data = alloc (shape_size out_shape) in
    Kernel.broadcast_map2_into f a.data sa b.data sb out_shape data;
    mk out_shape data
  end

let add =
  binary ~same:Kernel.add2_into ~aconst:Kernel.add_const_into
    ~consta:Kernel.const_add_into ~row:Kernel.row_add_into ~f:( +. )

let sub =
  binary ~same:Kernel.sub2_into ~aconst:Kernel.sub_const_into
    ~consta:Kernel.const_sub_into ~row:Kernel.row_sub_into ~f:( -. )

let mul =
  binary ~same:Kernel.mul2_into ~aconst:Kernel.mul_const_into
    ~consta:Kernel.const_mul_into ~row:Kernel.row_mul_into ~f:( *. )

let div =
  binary ~same:Kernel.div2_into ~aconst:Kernel.div_const_into
    ~consta:Kernel.const_div_into ~row:Kernel.row_div_into ~f:( /. )

let neg = unary Kernel.neg_into
let scale c = unary (Kernel.scale_map_into c)
let add_scalar c = unary (Kernel.add_scalar_into c)
let pow_scalar t p = map (fun x -> Float.pow x p) t
let exp = unary Kernel.exp_into
let log = unary Kernel.log_into
let sqrt = unary Kernel.sqrt_into
let sigmoid = unary Kernel.sigmoid_into
let tanh = unary Kernel.tanh_into
let relu = unary Kernel.relu_into
let softplus = unary Kernel.softplus_into
let recip = unary Kernel.recip_into
let sigmoid_deriv = unary Kernel.sigmoid_deriv_into

let clip ~min ~max t =
  map (fun x -> if x < min then min else if x > max then max else x) t

let global_norm ts =
  (* Scale by the largest magnitude so the sum of squares cannot
     overflow for norms near the float range. *)
  let peak =
    List.fold_left
      (fun acc t ->
        Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) acc t.data)
      0. ts
  in
  if peak = 0. then 0.
  else if not (Float.is_finite peak) then peak
  else begin
    let total = ref 0. in
    List.iter
      (fun t ->
        Array.iter
          (fun x ->
            let r = x /. peak in
            total := !total +. (r *. r))
          t.data)
      ts;
    peak *. Float.sqrt !total
  end

let clip_by_global_norm ~max_norm ts =
  if max_norm <= 0. then invalid_arg "Tensor.clip_by_global_norm: max_norm <= 0";
  let norm = global_norm ts in
  if norm <= max_norm || not (Float.is_finite norm) then ts
  else begin
    let s = max_norm /. norm in
    List.map (fun t -> { t with data = Array.map (fun x -> x *. s) t.data }) ts
  end

(* Reductions *)

let sum t = Array.fold_left ( +. ) 0. t.data
let mean t = sum t /. float_of_int (Stdlib.max 1 (Array.length t.data))
let max_elt t = Array.fold_left Float.max Float.neg_infinity t.data
let min_elt t = Array.fold_left Float.min Float.infinity t.data
let sum_keep t = scalar (sum t)

let sum_axis ax t =
  let r = Array.length t.shape in
  if ax < 0 || ax >= r then shape_error "sum_axis %d of %a" ax pp_shape t.shape;
  let out_shape =
    Array.of_list
      (List.filteri (fun i _ -> i <> ax) (Array.to_list t.shape))
  in
  let out = zeros out_shape in
  let n = Array.length t.data in
  let inner = t.st.(ax) in
  let axis_len = t.shape.(ax) in
  let outer_stride = inner * axis_len in
  let nblocks = if outer_stride = 0 then 0 else n / outer_stride in
  (* Nested loops visit flat indices in ascending order, so each output
     element accumulates its terms in the same order as the historical
     div/mod formulation — only the index arithmetic changed. *)
  let src = t.data and dst = out.data in
  for block = 0 to nblocks - 1 do
    let ibase = block * outer_stride and jbase = block * inner in
    for a = 0 to axis_len - 1 do
      let arow = ibase + (a * inner) in
      for w = 0 to inner - 1 do
        Array.unsafe_set dst (jbase + w)
          (Array.unsafe_get dst (jbase + w) +. Array.unsafe_get src (arow + w))
      done
    done
  done;
  out

let mean_axis ax t =
  let len = float_of_int t.shape.(ax) in
  scale (1. /. len) (sum_axis ax t)

let argmax t =
  let best = ref 0 in
  Array.iteri (fun i x -> if x > t.data.(!best) then best := i) t.data;
  !best

let logsumexp t =
  let m = max_elt t in
  if m = Float.neg_infinity then Float.neg_infinity
  else
    m
    +. Float.log
         (Array.fold_left (fun acc x -> acc +. Float.exp (x -. m)) 0. t.data)

let softmax t =
  let lse = logsumexp t in
  map (fun x -> Float.exp (x -. lse)) t

let max_axis ax t =
  let r = Array.length t.shape in
  if ax < 0 || ax >= r then shape_error "max_axis %d of %a" ax pp_shape t.shape;
  let out_shape =
    Array.of_list
      (List.filteri (fun i _ -> i <> ax) (Array.to_list t.shape))
  in
  let out = full out_shape Float.neg_infinity in
  let n = Array.length t.data in
  let inner = t.st.(ax) in
  let axis_len = t.shape.(ax) in
  let outer_stride = inner * axis_len in
  let nblocks = if outer_stride = 0 then 0 else n / outer_stride in
  let src = t.data and dst = out.data in
  for block = 0 to nblocks - 1 do
    let ibase = block * outer_stride and jbase = block * inner in
    for a = 0 to axis_len - 1 do
      let arow = ibase + (a * inner) in
      for w = 0 to inner - 1 do
        Array.unsafe_set dst (jbase + w)
          (Float.max
             (Array.unsafe_get dst (jbase + w))
             (Array.unsafe_get src (arow + w)))
      done
    done
  done;
  out

let logsumexp_axis ax t =
  let r = Array.length t.shape in
  if ax < 0 || ax >= r then
    shape_error "logsumexp_axis %d of %a" ax pp_shape t.shape;
  let m = max_axis ax t in
  let out = zeros (Array.copy m.shape) in
  let n = Array.length t.data in
  let inner = t.st.(ax) in
  let axis_len = t.shape.(ax) in
  let outer_stride = inner * axis_len in
  let nblocks = if outer_stride = 0 then 0 else n / outer_stride in
  let src = t.data and dst = out.data and mx = m.data in
  for block = 0 to nblocks - 1 do
    let ibase = block * outer_stride and jbase = block * inner in
    for a = 0 to axis_len - 1 do
      let arow = ibase + (a * inner) in
      for w = 0 to inner - 1 do
        let mj = Array.unsafe_get mx (jbase + w) in
        (* When every term is -inf the max-shift would produce NaN; the
           accumulator stays 0 and the final log gives -inf below. *)
        if mj > Float.neg_infinity then
          Array.unsafe_set dst (jbase + w)
            (Array.unsafe_get dst (jbase + w)
            +. Float.exp (Array.unsafe_get src (arow + w) -. mj))
      done
    done
  done;
  Array.iteri
    (fun j s ->
      dst.(j) <-
        (if mx.(j) = Float.neg_infinity then Float.neg_infinity
         else mx.(j) +. Float.log s))
    (Array.copy dst);
  out

(* Fused Bernoulli-with-logits row scoring. The compositional form
   [-(x * softplus (-l) + (1 - x) * softplus l)] walks the operands
   eight times and allocates as many temporaries; on the batched
   likelihood path this is the hot scoring kernel, so it gets one fused
   pass over the broadcast of [logits] and [x], summing all trailing
   axes into the per-row score [x*l - softplus l]. *)

(* The plan for one fused scoring pass: broadcast shape [n x tail] plus
   each operand's row stride — [tail] when the operand carries the row
   axis, [0] when it tiles along rows. Operands with exotic broadcast
   patterns are materialized to the full shape. *)
let bernoulli_logits_plan logits x =
  let bshape = broadcast_shapes logits.shape x.shape in
  if Array.length bshape < 1 then
    shape_error "bernoulli_logits_scores: scalar operands";
  let n = bshape.(0) in
  let size = shape_size bshape in
  let tail = if n = 0 then 0 else size / n in
  let leg t =
    let ts = Array.length t.data in
    if ts = size then (t.data, tail)
    else if ts = tail && shape_size (Array.sub bshape 1 (Array.length bshape - 1)) = tail
    then (t.data, 0)
    else ((broadcast_to t bshape).data, tail)
  in
  let ld, lst = leg logits and xd, xst = leg x in
  (bshape, n, tail, ld, lst, xd, xst)

let bernoulli_logits_scores_fwd ~logits ~x =
  let bshape, n, tail, l, lst, xd, xst = bernoulli_logits_plan logits x in
  let out = alloc n in
  let sg = alloc (shape_size bshape) in
  for i = 0 to n - 1 do
    let lbase = i * lst and xbase = i * xst and sbase = i * tail in
    let acc = ref 0. in
    for j = 0 to tail - 1 do
      let lij = Array.unsafe_get l (lbase + j) in
      (* softplus with the same >30 cutoff as [softplus]; the exp is
         shared with the sigmoid cached for the backward pass. *)
      let sp, s =
        if lij > 30. then (lij, 1. /. (1. +. Float.exp (-.lij)))
        else begin
          let e = Float.exp lij in
          (Float.log (1. +. e), e /. (1. +. e))
        end
      in
      Array.unsafe_set sg (sbase + j) s;
      acc := !acc +. ((Array.unsafe_get xd (xbase + j) *. lij) -. sp)
    done;
    out.(i) <- !acc
  done;
  (mk [| n |] out, mk bshape sg)

let bernoulli_logits_scores ~logits ~x =
  fst (bernoulli_logits_scores_fwd ~logits ~x)

(* Cotangent into [logits] at the broadcast shape (callers reduce back
   to the operand shape): [g_i * (x - sigma)], with [g] the per-row
   cotangent and [sigma] the forward pass's cached sigmoid. *)
let bernoulli_logits_scores_vjp ~sigma ~x ~g =
  let n = sigma.shape.(0) in
  let tail = if n = 0 then 0 else Array.length sigma.data / n in
  let xd, xst =
    if Array.length x.data = Array.length sigma.data then (x.data, tail)
    else if Array.length x.data = tail then (x.data, 0)
    else ((broadcast_to x sigma.shape).data, tail)
  in
  let out = alloc (Array.length sigma.data) in
  let sd = sigma.data and gd = g.data in
  for i = 0 to n - 1 do
    let base = i * tail and xbase = i * xst in
    let gi = Array.unsafe_get gd i in
    for j = 0 to tail - 1 do
      Array.unsafe_set out (base + j)
        (gi
        *. (Array.unsafe_get xd (xbase + j) -. Array.unsafe_get sd (base + j)))
    done
  done;
  mk (Array.copy sigma.shape) out

(* Linear algebra *)

let matmul a b =
  match (Array.length a.shape, Array.length b.shape) with
  | 2, 2 ->
    let m = a.shape.(0) and k = a.shape.(1) in
    let k' = b.shape.(0) and n = b.shape.(1) in
    if k <> k' then
      shape_error "matmul: %a x %a" pp_shape a.shape pp_shape b.shape;
    let data = alloc (m * n) in
    Kernel.matmul ~m ~k ~n a.data b.data data;
    mk [| m; n |] data
  | 2, 1 ->
    let m = a.shape.(0) and k = a.shape.(1) in
    if k <> b.shape.(0) then
      shape_error "matmul: %a x %a" pp_shape a.shape pp_shape b.shape;
    let data = alloc m in
    Kernel.matvec ~m ~k a.data b.data data;
    mk [| m |] data
  | 1, 2 ->
    let k = a.shape.(0) in
    let k' = b.shape.(0) and n = b.shape.(1) in
    if k <> k' then
      shape_error "matmul: %a x %a" pp_shape a.shape pp_shape b.shape;
    let data = alloc n in
    Kernel.vecmat ~k ~n a.data b.data data;
    mk [| n |] data
  | ra, rb -> shape_error "matmul: ranks %d and %d" ra rb

let matmul_t a b =
  match (Array.length a.shape, Array.length b.shape) with
  | 2, 2 ->
    let m = a.shape.(0) and k = a.shape.(1) in
    let n = b.shape.(0) and k' = b.shape.(1) in
    if k <> k' then
      shape_error "matmul_t: %a x %a^T" pp_shape a.shape pp_shape b.shape;
    let data = alloc (m * n) in
    Kernel.matmul_t ~m ~k ~n a.data b.data data;
    mk [| m; n |] data
  | ra, rb -> shape_error "matmul_t: ranks %d and %d" ra rb

let t_matmul a b =
  match (Array.length a.shape, Array.length b.shape) with
  | 2, 2 ->
    let m = a.shape.(0) and k = a.shape.(1) in
    let m' = b.shape.(0) and n = b.shape.(1) in
    if m <> m' then
      shape_error "t_matmul: %a^T x %a" pp_shape a.shape pp_shape b.shape;
    let data = alloc (k * n) in
    Kernel.t_matmul ~m ~k ~n a.data b.data data;
    mk [| k; n |] data
  | 2, 1 ->
    let m = a.shape.(0) and k = a.shape.(1) in
    if m <> b.shape.(0) then
      shape_error "t_matmul: %a^T x %a" pp_shape a.shape pp_shape b.shape;
    let data = alloc k in
    Kernel.t_matvec ~m ~k a.data b.data data;
    mk [| k |] data
  | ra, rb -> shape_error "t_matmul: ranks %d and %d" ra rb

let transpose t =
  match Array.length t.shape with
  | 0 | 1 -> t
  | 2 ->
    let m = t.shape.(0) and n = t.shape.(1) in
    let data = alloc (m * n) in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        data.((j * m) + i) <- t.data.((i * n) + j)
      done
    done;
    mk [| n; m |] data
  | r -> shape_error "transpose: rank %d" r

let dot a b =
  if Array.length a.data <> Array.length b.data then
    shape_error "dot: sizes %d and %d" (Array.length a.data)
      (Array.length b.data);
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.data.(i))) a.data;
  !acc

let outer a b =
  if Array.length a.shape <> 1 || Array.length b.shape <> 1 then
    shape_error "outer: ranks %d and %d" (Array.length a.shape)
      (Array.length b.shape);
  let m = a.shape.(0) and n = b.shape.(0) in
  init [| m; n |] (fun ix -> a.data.(ix.(0)) *. b.data.(ix.(1)))

(* Structural *)

let reshape new_shape t =
  if shape_size new_shape <> Array.length t.data then
    shape_error "reshape %a to %a" pp_shape t.shape pp_shape new_shape;
  mk (Array.copy new_shape) t.data

let flatten t = reshape [| Array.length t.data |] t

let concat0 ts =
  match ts with
  | [] -> shape_error "concat0: empty list"
  | first :: rest ->
    let tail_shape t = Array.sub t.shape 1 (Array.length t.shape - 1) in
    if rank first = 0 then shape_error "concat0: rank-0 operand";
    List.iter
      (fun t ->
        if tail_shape t <> tail_shape first then
          shape_error "concat0: %a vs %a" pp_shape t.shape pp_shape first.shape)
      rest;
    let total0 = List.fold_left (fun acc t -> acc + t.shape.(0)) 0 ts in
    let out_shape = Array.copy first.shape in
    out_shape.(0) <- total0;
    let data = alloc (shape_size out_shape) in
    let off = ref 0 in
    List.iter
      (fun t ->
        Array.blit t.data 0 data !off (Array.length t.data);
        off := !off + Array.length t.data)
      ts;
    mk out_shape data

let stack0 ts =
  match ts with
  | [] -> shape_error "stack0: empty list"
  | first :: rest ->
    List.iter
      (fun t ->
        if t.shape <> first.shape then
          shape_error "stack0: %a vs %a" pp_shape t.shape pp_shape first.shape)
      rest;
    let out_shape = Array.append [| List.length ts |] first.shape in
    let data = alloc (shape_size out_shape) in
    List.iteri
      (fun i t -> Array.blit t.data 0 data (i * Array.length t.data)
          (Array.length t.data))
      ts;
    mk out_shape data

let slice0 t i =
  if rank t = 0 then shape_error "slice0: rank-0 tensor";
  if i < 0 || i >= t.shape.(0) then
    shape_error "slice0: index %d of %a" i pp_shape t.shape;
  let sub_shape = Array.sub t.shape 1 (Array.length t.shape - 1) in
  let n = shape_size sub_shape in
  let data = alloc n in
  Array.blit t.data (i * n) data 0 n;
  mk sub_shape data

let rows t = List.init t.shape.(0) (slice0 t)
let take_rows t ixs = stack0 (List.map (slice0 t) ixs)

(* Comparison and printing *)

let equal a b = a.shape = b.shape && a.data = b.data

let approx_equal ?(tol = 1e-9) a b =
  a.shape = b.shape
  && Array.length a.data = Array.length b.data
  &&
  let ok = ref true in
  Array.iteri
    (fun i x -> if Float.abs (x -. b.data.(i)) > tol then ok := false)
    a.data;
  !ok

let all_finite t = Array.for_all Float.is_finite t.data

let pp ppf t =
  match Array.length t.shape with
  | 0 -> Format.fprintf ppf "%g" t.data.(0)
  | 1 ->
    Format.fprintf ppf "[%s]"
      (String.concat " "
         (Array.to_list (Array.map (Format.sprintf "%g") t.data)))
  | _ ->
    Format.fprintf ppf "tensor%a{%s%s}" pp_shape t.shape
      (String.concat " "
         (List.filteri
            (fun i _ -> i < 8)
            (Array.to_list (Array.map (Format.sprintf "%g") t.data))))
      (if Array.length t.data > 8 then " ..." else "")

let to_string t = Format.asprintf "%a" pp t

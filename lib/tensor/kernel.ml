(* Raw row-major kernels. Two invariants keep every kernel bit-identical
   to its naive reference loop, for any domain count:

   - partitioning is by fixed-size blocks (constants below), never by
     the number of domains, and each block writes a disjoint slice of
     the output;
   - within one output element, terms accumulate in the same order as
     the reference loop (ascending inner index), and zero left-operand
     elements are skipped exactly where the reference skipped them.

   Blocks only pay off above a size threshold. Below [elt_min] an
   elementwise kernel does no dispatch at all: it calls its loop
   directly, never reaching [Parallel.run], so [Parallel.jobs_run]
   counts elementwise fan-outs and matrix products only. Matrix
   kernels below [work_min] run their one block through
   [Parallel.run] inline. *)

(* Elements per parallel block for elementwise kernels. *)
let elt_block = 16_384

(* Minimum elements before an elementwise kernel fans out. *)
let elt_min = 32_768

(* Output rows per matrix-kernel block. *)
let row_block = 16

(* Column tile for cache blocking of [matmul]: one [k x col_tile] panel
   of B stays resident while a row block of A streams past. *)
let col_tile = 128

(* Minimum multiply-adds before a matrix kernel fans out. *)
let work_min = 1 lsl 15

let row_blocks m work =
  if work < work_min || m <= row_block then 1 else (m + row_block - 1) / row_block

let row_range m nb bi =
  if nb = 1 then (0, m)
  else
    let lo = bi * row_block in
    (lo, Stdlib.min m (lo + row_block))

(* Elementwise.

   Each kernel's loop is written once, as a top-level [*_range]
   function over [lo, hi). Below [elt_min] elements the kernel calls it
   directly on the whole array — no closure, no [Parallel.run], no
   atomics — so a rank-0 or small op costs a call and its loop. At or
   above [elt_min], [fan] splits the array into [elt_block] blocks
   through the pool, which pays on large arrays (EXPERIMENTS.md times
   [exp] and [tanh] at 147 456 elements on one and two domains). *)

let fan n range =
  let nb = (n + elt_block - 1) / elt_block in
  Parallel.run ~blocks:nb (fun bi ->
      let lo = bi * elt_block in
      range lo (Stdlib.min n (lo + elt_block)))

let map_range f src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (f (Array.unsafe_get src i))
  done

let map_into f src dst =
  let n = Array.length src in
  if n < elt_min then map_range f src dst 0 n
  else fan n (fun lo hi -> map_range f src dst lo hi)

(* Specialized elementwise kernels. Without flambda, [map_into f ...]
   boxes two floats per element to cross the unknown closure [f] — on a
   [256 x 144] operand that is ~1.8 MB of garbage for a 0.3 MB result.
   The named kernels below inline the exact float expression the
   generic path computed (same operations, same order, bit-identical
   results) into the loop, so the hot elementwise ops allocate nothing
   beyond their output. A builder taking the float op as an argument
   would reintroduce the closure; each loop is written out so the float
   op is a known call. *)

let exp_range src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Float.exp (Array.unsafe_get src i))
  done

let exp_into src dst =
  let n = Array.length src in
  if n < elt_min then exp_range src dst 0 n
  else fan n (fun lo hi -> exp_range src dst lo hi)

let log_range src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Float.log (Array.unsafe_get src i))
  done

let log_into src dst =
  let n = Array.length src in
  if n < elt_min then log_range src dst 0 n
  else fan n (fun lo hi -> log_range src dst lo hi)

let sqrt_range src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Float.sqrt (Array.unsafe_get src i))
  done

let sqrt_into src dst =
  let n = Array.length src in
  if n < elt_min then sqrt_range src dst 0 n
  else fan n (fun lo hi -> sqrt_range src dst lo hi)

let neg_range src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (-.(Array.unsafe_get src i))
  done

let neg_into src dst =
  let n = Array.length src in
  if n < elt_min then neg_range src dst 0 n
  else fan n (fun lo hi -> neg_range src dst lo hi)

let scale_map_range c src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (c *. Array.unsafe_get src i)
  done

let scale_map_into c src dst =
  let n = Array.length src in
  if n < elt_min then scale_map_range c src dst 0 n
  else fan n (fun lo hi -> scale_map_range c src dst lo hi)

let add_scalar_range c src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (c +. Array.unsafe_get src i)
  done

let add_scalar_into c src dst =
  let n = Array.length src in
  if n < elt_min then add_scalar_range c src dst 0 n
  else fan n (fun lo hi -> add_scalar_range c src dst lo hi)

let sigmoid_range src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i
      (1. /. (1. +. Float.exp (-.(Array.unsafe_get src i))))
  done

let sigmoid_into src dst =
  let n = Array.length src in
  if n < elt_min then sigmoid_range src dst 0 n
  else fan n (fun lo hi -> sigmoid_range src dst lo hi)

let tanh_range src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Float.tanh (Array.unsafe_get src i))
  done

let tanh_into src dst =
  let n = Array.length src in
  if n < elt_min then tanh_range src dst 0 n
  else fan n (fun lo hi -> tanh_range src dst lo hi)

let relu_range src dst lo hi =
  for i = lo to hi - 1 do
    let x = Array.unsafe_get src i in
    Array.unsafe_set dst i (if x > 0. then x else 0.)
  done

let relu_into src dst =
  let n = Array.length src in
  if n < elt_min then relu_range src dst 0 n
  else fan n (fun lo hi -> relu_range src dst lo hi)

(* Same >30 cutoff as the historical [Tensor.softplus] closure. *)
let softplus_range src dst lo hi =
  for i = lo to hi - 1 do
    let x = Array.unsafe_get src i in
    Array.unsafe_set dst i
      (if x > 30. then x else Float.log (1. +. Float.exp x))
  done

let softplus_into src dst =
  let n = Array.length src in
  if n < elt_min then softplus_range src dst 0 n
  else fan n (fun lo hi -> softplus_range src dst lo hi)

let recip_range src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (1. /. Array.unsafe_get src i)
  done

let recip_into src dst =
  let n = Array.length src in
  if n < elt_min then recip_range src dst 0 n
  else fan n (fun lo hi -> recip_range src dst lo hi)

let sigmoid_deriv_range src dst lo hi =
  for i = lo to hi - 1 do
    let s = Array.unsafe_get src i in
    Array.unsafe_set dst i (s *. (1. -. s))
  done

let sigmoid_deriv_into src dst =
  let n = Array.length src in
  if n < elt_min then sigmoid_deriv_range src dst 0 n
  else fan n (fun lo hi -> sigmoid_deriv_range src dst lo hi)

(* [1 - s^2] over tanh outputs, the [tanh] vjp. *)
let tanh_deriv_range src dst lo hi =
  for i = lo to hi - 1 do
    let s = Array.unsafe_get src i in
    Array.unsafe_set dst i (1. -. (s *. s))
  done

let tanh_deriv_into src dst =
  let n = Array.length src in
  if n < elt_min then tanh_deriv_range src dst 0 n
  else fan n (fun lo hi -> tanh_deriv_range src dst lo hi)

(* The [relu] vjp's 0/1 mask (subgradient 0 at the kink). *)
let relu_deriv_range src dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (if Array.unsafe_get src i > 0. then 1. else 0.)
  done

let relu_deriv_into src dst =
  let n = Array.length src in
  if n < elt_min then relu_deriv_range src dst 0 n
  else fan n (fun lo hi -> relu_deriv_range src dst lo hi)

let add2_range a b dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i +. Array.unsafe_get b i)
  done

let add2_into a b dst =
  let n = Array.length dst in
  if n < elt_min then add2_range a b dst 0 n
  else fan n (fun lo hi -> add2_range a b dst lo hi)

let sub2_range a b dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i -. Array.unsafe_get b i)
  done

let sub2_into a b dst =
  let n = Array.length dst in
  if n < elt_min then sub2_range a b dst 0 n
  else fan n (fun lo hi -> sub2_range a b dst lo hi)

let mul2_range a b dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i *. Array.unsafe_get b i)
  done

let mul2_into a b dst =
  let n = Array.length dst in
  if n < elt_min then mul2_range a b dst 0 n
  else fan n (fun lo hi -> mul2_range a b dst lo hi)

let div2_range a b dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i /. Array.unsafe_get b i)
  done

let div2_into a b dst =
  let n = Array.length dst in
  if n < elt_min then div2_range a b dst 0 n
  else fan n (fun lo hi -> div2_range a b dst lo hi)

(* Scalar legs of a broadcast binary op: [a OP c] and [c OP b]. *)

let add_const_range a c dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i +. c)
  done

let add_const_into a c dst =
  let n = Array.length dst in
  if n < elt_min then add_const_range a c dst 0 n
  else fan n (fun lo hi -> add_const_range a c dst lo hi)

let const_add_range c b dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (c +. Array.unsafe_get b i)
  done

let const_add_into c b dst =
  let n = Array.length dst in
  if n < elt_min then const_add_range c b dst 0 n
  else fan n (fun lo hi -> const_add_range c b dst lo hi)

let sub_const_range a c dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i -. c)
  done

let sub_const_into a c dst =
  let n = Array.length dst in
  if n < elt_min then sub_const_range a c dst 0 n
  else fan n (fun lo hi -> sub_const_range a c dst lo hi)

let const_sub_range c b dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (c -. Array.unsafe_get b i)
  done

let const_sub_into c b dst =
  let n = Array.length dst in
  if n < elt_min then const_sub_range c b dst 0 n
  else fan n (fun lo hi -> const_sub_range c b dst lo hi)

let mul_const_range a c dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i *. c)
  done

let mul_const_into a c dst =
  let n = Array.length dst in
  if n < elt_min then mul_const_range a c dst 0 n
  else fan n (fun lo hi -> mul_const_range a c dst lo hi)

let const_mul_range c b dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (c *. Array.unsafe_get b i)
  done

let const_mul_into c b dst =
  let n = Array.length dst in
  if n < elt_min then const_mul_range c b dst 0 n
  else fan n (fun lo hi -> const_mul_range c b dst lo hi)

let div_const_range a c dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i /. c)
  done

let div_const_into a c dst =
  let n = Array.length dst in
  if n < elt_min then div_const_range a c dst 0 n
  else fan n (fun lo hi -> div_const_range a c dst lo hi)

let const_div_range c b dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (c /. Array.unsafe_get b i)
  done

let const_div_into c b dst =
  let n = Array.length dst in
  if n < elt_min then const_div_range c b dst 0 n
  else fan n (fun lo hi -> const_div_range c b dst lo hi)

(* Row-broadcast legs: [a : rows x n] OP [b : n], and the flipped
   orientation. Same loop structure as the [row_broadcast] case of
   [Tensor.map2]. *)

let row_add_into a b n dst =
  let rows = Array.length a / n in
  for r = 0 to rows - 1 do
    let base = r * n in
    for j = 0 to n - 1 do
      Array.unsafe_set dst (base + j)
        (Array.unsafe_get a (base + j) +. Array.unsafe_get b j)
    done
  done

let row_sub_into a b n dst =
  let rows = Array.length a / n in
  for r = 0 to rows - 1 do
    let base = r * n in
    for j = 0 to n - 1 do
      Array.unsafe_set dst (base + j)
        (Array.unsafe_get a (base + j) -. Array.unsafe_get b j)
    done
  done

let row_mul_into a b n dst =
  let rows = Array.length a / n in
  for r = 0 to rows - 1 do
    let base = r * n in
    for j = 0 to n - 1 do
      Array.unsafe_set dst (base + j)
        (Array.unsafe_get a (base + j) *. Array.unsafe_get b j)
    done
  done

let row_div_into a b n dst =
  let rows = Array.length a / n in
  for r = 0 to rows - 1 do
    let base = r * n in
    for j = 0 to n - 1 do
      Array.unsafe_set dst (base + j)
        (Array.unsafe_get a (base + j) /. Array.unsafe_get b j)
    done
  done


let map2_range f a b dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (f (Array.unsafe_get a i) (Array.unsafe_get b i))
  done

let map2_into f a b dst =
  let n = Array.length dst in
  if n < elt_min then map2_range f a b dst 0 n
  else fan n (fun lo hi -> map2_range f a b dst lo hi)

let fill dst x =
  let n = Array.length dst in
  if n < elt_min then Array.fill dst 0 n x
  else fan n (fun lo hi -> Array.fill dst lo (hi - lo) x)

let scale_range c dst lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (c *. Array.unsafe_get dst i)
  done

let scale_into c dst =
  let n = Array.length dst in
  if n < elt_min then scale_range c dst 0 n
  else fan n (fun lo hi -> scale_range c dst lo hi)

let add_range dst src lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (Array.unsafe_get dst i +. Array.unsafe_get src i)
  done

let add_into dst src =
  let n = Array.length dst in
  if n < elt_min then add_range dst src 0 n
  else fan n (fun lo hi -> add_range dst src lo hi)

let axpy_range alpha x y lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i +. (alpha *. Array.unsafe_get x i))
  done

let axpy_into alpha x y =
  let n = Array.length y in
  if n < elt_min then axpy_range alpha x y 0 n
  else fan n (fun lo hi -> axpy_range alpha x y lo hi)


(* Broadcast map. Each block re-derives its starting operand offsets
   from its flat output index, then walks forward with the same
   rightmost-fastest carry loop as the sequential reference. *)

let walk_range f a sa b sb out_shape dst lo hi =
  if hi <= lo then ()  (* empty range; shapes may contain 0 dims *)
  else begin
  let r = Array.length out_shape in
  let ix = Array.make r 0 in
  let ia = ref 0 and ib = ref 0 in
  let rem = ref lo in
  for d = r - 1 downto 0 do
    let i = !rem mod out_shape.(d) in
    rem := !rem / out_shape.(d);
    ix.(d) <- i;
    ia := !ia + (i * sa.(d));
    ib := !ib + (i * sb.(d))
  done;
  for flat = lo to hi - 1 do
    Array.unsafe_set dst flat
      (f (Array.unsafe_get a !ia) (Array.unsafe_get b !ib));
    let d = ref (r - 1) in
    let carry = ref true in
    while !carry && !d >= 0 do
      ix.(!d) <- ix.(!d) + 1;
      ia := !ia + sa.(!d);
      ib := !ib + sb.(!d);
      if ix.(!d) >= out_shape.(!d) then begin
        ix.(!d) <- 0;
        ia := !ia - (out_shape.(!d) * sa.(!d));
        ib := !ib - (out_shape.(!d) * sb.(!d));
        decr d
      end
      else carry := false
    done
  done
  end


let broadcast_map2_into f a sa b sb out_shape dst =
  let n = Array.length dst in
  if n < elt_min then walk_range f a sa b sb out_shape dst 0 n
  else fan n (fun lo hi -> walk_range f a sa b sb out_shape dst lo hi)

(* Reuse the pair walker with the source on both legs. *)
let broadcast_copy_into src sst out_shape dst =
  let n = Array.length dst in
  if n < elt_min then walk_range (fun x _ -> x) src sst src sst out_shape dst 0 n
  else
    fan n (fun lo hi ->
        walk_range (fun x _ -> x) src sst src sst out_shape dst lo hi)

(* Matrix products.

   The per-block loop bodies live in C (kernel_stubs.c, whose header
   states the contract). Every output element sums the same terms in
   the same order as the naive references in test/test_kernel.ml (the
   reduction index ascending, from the zeroed output), zero left-operand
   entries are skipped exactly where those references skip them, and
   nothing is fused into a multiply-add, so every result that is not a
   NaN keeps its bits (a NaN may carry another payload).

   The three products a training step spends its time in ([matmul],
   [matmul_t]'s saxpy form, [t_matmul]) have two C bodies: the portable
   saxpy loops, and on x86-64 an AVX2 body that keeps 4 x 8 tiles of
   the output in registers while the reduction runs. [active] picks one
   once per process from the CPU's feature bits; there is no knob. On
   the 15 products of a batch-256 VAE step, one domain, the AVX2 body
   takes 1.5-2.2 ms where the portable one takes 4.4-6.4 ms and the
   same loops compiled for AVX2 3.0-4.1 ms (EXPERIMENTS.md). Block
   partitioning stays here, through the same [Parallel] pool as before,
   and no tile crosses a block, so every domain count keeps the bits. *)

type body = Portable | Avx2

external avx2_supported : unit -> bool = "ppvi_kernel_avx2"

let active = if avx2_supported () then Avx2 else Portable
let bodies = if active = Avx2 then [ Portable; Avx2 ] else [ Portable ]
let body_name = function Portable -> "portable" | Avx2 -> "avx2"
let isa () = body_name active

external matmul_block :
  float array -> float array -> float array ->
  int -> int -> int -> int -> int -> int -> body -> unit
  = "ppvi_matmul_block_bc" "ppvi_matmul_block"
[@@noalloc]

external matmul_t_block :
  float array -> float array -> float array ->
  int -> int -> int -> int -> unit
  = "ppvi_matmul_t_block_bc" "ppvi_matmul_t_block"
[@@noalloc]

external transpose_into :
  float array -> float array -> int -> int -> unit
  = "ppvi_transpose_into"
[@@noalloc]

external matmul_nt_block :
  float array -> float array -> float array ->
  int -> int -> int -> int -> int -> int -> body -> unit
  = "ppvi_matmul_nt_block_bc" "ppvi_matmul_nt_block"
[@@noalloc]

external t_matmul_block :
  float array -> float array -> float array ->
  int -> int -> int -> int -> int -> body -> unit
  = "ppvi_t_matmul_block_bc" "ppvi_t_matmul_block"
[@@noalloc]

external matvec_block :
  float array -> float array -> float array -> int -> int -> int -> unit
  = "ppvi_matvec_block_bc" "ppvi_matvec_block"
[@@noalloc]

external t_matvec_block :
  float array -> float array -> float array ->
  int -> int -> int -> int -> unit
  = "ppvi_t_matvec_block_bc" "ppvi_t_matvec_block"
[@@noalloc]

external vecmat_block :
  float array -> float array -> float array ->
  int -> int -> int -> int -> unit
  = "ppvi_vecmat_block_bc" "ppvi_vecmat_block"
[@@noalloc]

let matmul_with body ~m ~k ~n a b c =
  let nb = row_blocks m (m * k * n) in
  Parallel.run ~blocks:nb (fun bi ->
      let lo, hi = row_range m nb bi in
      let jt = ref 0 in
      while !jt < n do
        let jlo = !jt in
        let jhi = Stdlib.min n (jlo + col_tile) in
        matmul_block a b c k n lo hi jlo jhi body;
        jt := jhi
      done)

let matmul ~m ~k ~n a b c = matmul_with active ~m ~k ~n a b c

(* Above this threshold, [matmul_t] pays one B^T materialization to run
   in vectorizable saxpy form; the per-element term order (p ascending,
   no zero-skip) is unchanged, so both paths are bit-identical to the
   dot-form reference. Below it, the transpose overhead is not worth
   amortizing over too few output elements. *)
let nt_min = 1 lsl 14

let matmul_t_with body ~m ~k ~n a b c =
  if m * k * n < nt_min then
    matmul_t_block a b c k n 0 m
  else begin
    let bt = Array.make (k * n) 0. in
    transpose_into b bt n k;
    let nb = row_blocks m (m * k * n) in
    Parallel.run ~blocks:nb (fun bi ->
        let lo, hi = row_range m nb bi in
        let jt = ref 0 in
        while !jt < n do
          let jlo = !jt in
          let jhi = Stdlib.min n (jlo + col_tile) in
          matmul_nt_block a bt c k n lo hi jlo jhi body;
          jt := jhi
        done)
  end

let matmul_t ~m ~k ~n a b c = matmul_t_with active ~m ~k ~n a b c

let t_matmul_with body ~m ~k ~n a b c =
  (* Output is k x n: block over the k output rows. *)
  let nb = row_blocks k (m * k * n) in
  Parallel.run ~blocks:nb (fun bi ->
      let plo, phi = row_range k nb bi in
      t_matmul_block a b c m k n plo phi body)

let t_matmul ~m ~k ~n a b c = t_matmul_with active ~m ~k ~n a b c

let matvec ~m ~k a x y =
  let nb = row_blocks m (m * k) in
  Parallel.run ~blocks:nb (fun bi ->
      let lo, hi = row_range m nb bi in
      matvec_block a x y k lo hi)

let t_matvec ~m ~k a x y =
  let nb = row_blocks k (m * k) in
  Parallel.run ~blocks:nb (fun bi ->
      let plo, phi = row_range k nb bi in
      t_matvec_block a x y m k plo phi)

let vecmat ~k ~n x b y =
  let nb = row_blocks n (k * n) in
  Parallel.run ~blocks:nb (fun bi ->
      let jlo, jhi = row_range n nb bi in
      vecmat_block x b y k n jlo jhi)

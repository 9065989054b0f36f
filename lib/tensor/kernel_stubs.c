/* C bodies for the matrix-product block kernels.

   Each function computes ONE block of the corresponding OCaml kernel in
   [kernel.ml] (a row block, and for [matmul] one column tile of it).
   Block partitioning stays on the OCaml side; no code here crosses a
   block. The contract, enforced by test/test_kernel.ml:

   - Every output element sums the same terms in the same order as the
     naive reference: the reduction index runs ascending, starting from
     the (zeroed) output element.
   - A zero left-operand entry is skipped exactly where the reference
     skips it: [matmul], [t_matmul], [t_matvec] and [vecmat] skip,
     [matmul_t]/[matmul_nt] and [matvec] do not. A skipped term is never
     added, not even as a zero (0 * inf is a NaN, and +0 + -0 is +0).
   - No fused multiply-add: the flags (see dune) include
     -ffp-contract=off, and no body enables the [fma] target. An FMA
     rounds once where the OCaml references round twice.

   So every output element that is not a NaN keeps its bits, signed
   zeros and infinities included. A NaN stays a NaN, but its payload may
   differ between bodies: a vector add may take its operands in the
   other order, which only changes which of two NaNs propagates.

   Two bodies. The portable body is the historical saxpy loops: for each
   left-operand entry, one pass over a row of the output (gcc vectorizes
   the column loop at -O3 without reordering any element's chain). On
   x86-64 an AVX2 body is compiled next to it, and [Kernel] picks one
   once per process from the CPU's feature bits ([ppvi_kernel_avx2]);
   a CPU without AVX2 runs exactly the portable loops. The AVX2 body
   runs the three products a training step spends its time in
   ([matmul], [matmul_nt], [t_matmul]) as register tiles: a 4-row x
   8-column block of the output stays in eight 4-wide accumulators
   while the reduction index runs, so each term costs a broadcast, a
   multiply and an add instead of a load, a multiply, an add and a
   store of the output. 4x8 tied 4x12 and beat 8x4 and 6x8. Rows past
   the last full tile group, and left operands with more than a
   quarter zeros (a sprite batch is about 82% zeros), run the saxpy
   loops compiled for AVX2: per-term skipping pays less inside a tile,
   and both forms give the same bits. On the 15 products of a
   batch-256 VAE step, one domain, a 2-vCPU Xeon VM, medians of three
   in-process runs of 7-9 alternating rounds: 4.4-6.4 ms portable,
   3.0-4.1 ms for the same loops compiled for AVX2, 1.5-2.2 ms tiled.
   See EXPERIMENTS.md "Register-tiled matmul kernels and a one-pass
   Adam".

   Float arrays are passed unboxed: an OCaml [float array] is a
   contiguous block of doubles, and none of these stubs allocate or
   release the runtime lock, so raw pointers stay valid for the call. */

#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define PPVI_AVX2 1
#include <immintrin.h>
#endif

#define DATA(v) ((double *)(v))
#define INLINE static inline __attribute__((always_inline))

/* The body [Kernel] passes: its [body] type's constructors in order. */
enum { BODY_PORTABLE = 0, BODY_AVX2 = 1 };

/* ------------------------------------------------------------------ */
/* Saxpy loops. Inlined into both bodies, so the AVX2 body gets them
   compiled for AVX2 (gcc may inline a baseline function into a
   target("avx2") caller). With the full column range they are the
   historical loops. */

/* c[i, jlo..jhi) += a[i, p] * b[p, jlo..jhi) for i in [lo, hi), p
   ascending. Skips a[i,p] == 0 when [skip]; [skip] is a constant at
   every call, so each instance has one loop. */
INLINE void saxpy_rows(const double *a, const double *b, double *c,
                       long k, long n, long lo, long hi, long jlo,
                       long jhi, int skip) {
  for (long i = lo; i < hi; i++) {
    const double *arow = a + i * k;
    double *crow = c + i * n;
    for (long p = 0; p < k; p++) {
      double aip = arow[p];
      if (!skip || aip != 0.) {
        const double *brow = b + p * n;
        for (long j = jlo; j < jhi; j++) crow[j] += aip * brow[j];
      }
    }
  }
}

/* c[p, jlo..jhi) += a[i, p] * b[i, jlo..jhi) for p in [plo, phi), i
   ascending: the A^T * B form. Skips a[i,p] == 0. */
INLINE void saxpy_t_rows(const double *a, const double *b, double *c,
                         long m, long k, long n, long plo, long phi,
                         long jlo, long jhi) {
  for (long i = 0; i < m; i++) {
    const double *arow = a + i * k;
    const double *brow = b + i * n;
    for (long p = plo; p < phi; p++) {
      double aip = arow[p];
      if (aip != 0.) {
        double *crow = c + p * n;
        for (long j = jlo; j < jhi; j++) crow[j] += aip * brow[j];
      }
    }
  }
}

/* ------------------------------------------------------------------ */
/* AVX2 body. */

#ifdef PPVI_AVX2

#define AVX2 __attribute__((target("avx2")))
#define TILE_ROWS 4
#define TILE_COLS 8
/* Reduction steps per pass over a tile (see [tiled_rows], [tiled_t]). */
#define KC 128

/* One output tile of 4 rows by [w] <= 8 columns: c[r, 0..w) for r in
   0..4 (row stride n) gets the sum over q in [0, kq), ascending, of
   a[q * aqs + r] * b[q * n, 0..w), on top of what it holds. The four
   left-operand entries of a step are contiguous (a "quad"); [matmul]
   packs them, [t_matmul] reads them in place. The output rows stay in
   eight 4-wide accumulators. [full] (w = 8, a constant at each call)
   uses plain loads; a column edge masks its loads and stores, so lanes
   past [w] are never read or written. With [skip], a zero entry leaves
   its row's accumulators untouched; a quad with no zero takes one
   branch. The vector compare is the C [!=]: -0.0 is zero, a NaN is
   not. */
INLINE AVX2 void tile(const double *a, long aqs, const double *b,
                      double *c, long n, long kq, long w, int full,
                      int skip) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i k0 = _mm256_cmpgt_epi64(_mm256_set1_epi64x(w), lane);
  const __m256i k1 = _mm256_cmpgt_epi64(_mm256_set1_epi64x(w - 4), lane);
#define LD(p, kk) (full ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, kk))
#define ST(p, kk, x) \
  (full ? _mm256_storeu_pd(p, x) : _mm256_maskstore_pd(p, kk, x))
  double *c1 = c + n, *c2 = c1 + n, *c3 = c2 + n;
  __m256d x00 = LD(c, k0), x01 = LD(c + 4, k1);
  __m256d x10 = LD(c1, k0), x11 = LD(c1 + 4, k1);
  __m256d x20 = LD(c2, k0), x21 = LD(c2 + 4, k1);
  __m256d x30 = LD(c3, k0), x31 = LD(c3 + 4, k1);
  for (long q = 0; q < kq; q++) {
    const double *aq = a + q * aqs;
    const double *bq = b + q * n;
    __m256d b0 = LD(bq, k0), b1 = LD(bq + 4, k1);
    int nz = 15;
    if (skip)
      nz = _mm256_movemask_pd(_mm256_cmp_pd(
          _mm256_loadu_pd(aq), _mm256_setzero_pd(), _CMP_NEQ_UQ));
#define ROW(xr0, xr1, r)                                             \
  do {                                                               \
    __m256d s = _mm256_broadcast_sd(aq + r);                         \
    xr0 = _mm256_add_pd(xr0, _mm256_mul_pd(s, b0));                  \
    xr1 = _mm256_add_pd(xr1, _mm256_mul_pd(s, b1));                  \
  } while (0)
    if (nz == 15) {
      ROW(x00, x01, 0);
      ROW(x10, x11, 1);
      ROW(x20, x21, 2);
      ROW(x30, x31, 3);
    } else {
      if (nz & 1) ROW(x00, x01, 0);
      if (nz & 2) ROW(x10, x11, 1);
      if (nz & 4) ROW(x20, x21, 2);
      if (nz & 8) ROW(x30, x31, 3);
    }
#undef ROW
  }
  ST(c, k0, x00), ST(c + 4, k1, x01);
  ST(c1, k0, x10), ST(c1 + 4, k1, x11);
  ST(c2, k0, x20), ST(c2 + 4, k1, x21);
  ST(c3, k0, x30), ST(c3 + 4, k1, x31);
#undef LD
#undef ST
}

/* The tiles of columns [jlo, jhi): full ones, then a masked edge. */
INLINE AVX2 void tile_row(const double *a, long aqs, const double *b,
                          double *c, long n, long kq, long jlo, long jhi,
                          int skip) {
  long j = jlo;
  for (; j + TILE_COLS <= jhi; j += TILE_COLS)
    tile(a, aqs, b + j, c + j, n, kq, TILE_COLS, 1, skip);
  if (j < jhi) tile(a, aqs, b + j, c + j, n, kq, jhi - j, 0, skip);
}

/* A left operand counts as mostly zeros, and runs in saxpy form, when
   more than one entry in four is zero. Measured on [256 x 144] left
   operands: tiles win below about 30% zeros, saxpy above (at 82%
   zeros, a sprite batch, saxpy takes half the time). */
INLINE AVX2 int mostly_zeros(long zeros, long total) {
  return zeros * 4 > total;
}

/* c[i, jlo..jhi) += a[i, p] * b[p, jlo..jhi) for i in [lo, hi) as
   tiles: A * B (skip) or A * Bt (no skip). Each 4-row group packs its
   quads for KC steps of p into [quads], and its tiles run those steps
   before the next KC; rows past the last full group run in saxpy
   form. */
INLINE AVX2 void tiled_rows(const double *a, const double *b, double *c,
                            long k, long n, long lo, long hi, long jlo,
                            long jhi, int skip) {
  double quads[TILE_ROWS * KC];
  long i = lo;
  for (; i + TILE_ROWS <= hi; i += TILE_ROWS)
    for (long p0 = 0; p0 < k; p0 += KC) {
      long kq = k - p0 < KC ? k - p0 : KC;
      for (long q = 0; q < kq; q++)
        for (long r = 0; r < TILE_ROWS; r++)
          quads[q * TILE_ROWS + r] = a[(i + r) * k + p0 + q];
      tile_row(quads, TILE_ROWS, b + p0 * n, c + i * n, n, kq, jlo, jhi,
               skip);
    }
  if (i < hi) saxpy_rows(a, b, c, k, n, i, hi, jlo, jhi, skip);
}

/* c[p, 0..n) += a[i, p] * b[i, 0..n) for p in [plo, phi) as tiles. The
   reduction index i runs in passes of KC; within a pass a column of
   tiles shares its B rows, and the block's A columns serve every
   column of tiles. */
INLINE AVX2 void tiled_t(const double *a, const double *b, double *c,
                         long m, long k, long n, long plo, long phi) {
  long pt = plo + (phi - plo) / TILE_ROWS * TILE_ROWS;
  for (long i0 = 0; i0 < m; i0 += KC) {
    long kq = m - i0 < KC ? m - i0 : KC;
    const double *ai = a + i0 * k, *bi = b + i0 * n;
    for (long j = 0; j < n; j += TILE_COLS) {
      long w = n - j < TILE_COLS ? n - j : TILE_COLS;
      for (long p = plo; p < pt; p += TILE_ROWS) {
        if (w == TILE_COLS)
          tile(ai + p, k, bi + j, c + p * n + j, n, kq, TILE_COLS, 1, 1);
        else
          tile(ai + p, k, bi + j, c + p * n + j, n, kq, w, 0, 1);
      }
    }
  }
  if (pt < phi) saxpy_t_rows(a, b, c, m, k, n, pt, phi, 0, n);
}

static AVX2 void matmul_avx2(const double *a, const double *b, double *c,
                             long k, long n, long lo, long hi, long jlo,
                             long jhi) {
  long zeros = 0;
  for (long t = lo * k; t < hi * k; t++) zeros += a[t] == 0.;
  if (mostly_zeros(zeros, (hi - lo) * k))
    saxpy_rows(a, b, c, k, n, lo, hi, jlo, jhi, 1);
  else
    tiled_rows(a, b, c, k, n, lo, hi, jlo, jhi, 1);
}

static AVX2 void matmul_nt_avx2(const double *a, const double *bt,
                                double *c, long k, long n, long lo,
                                long hi, long jlo, long jhi) {
  tiled_rows(a, bt, c, k, n, lo, hi, jlo, jhi, 0);
}

static AVX2 void t_matmul_avx2(const double *a, const double *b, double *c,
                               long m, long k, long n, long plo,
                               long phi) {
  long zeros = 0;
  for (long i = 0; i < m; i++)
    for (long p = plo; p < phi; p++) zeros += a[i * k + p] == 0.;
  if (mostly_zeros(zeros, m * (phi - plo)))
    saxpy_t_rows(a, b, c, m, k, n, plo, phi, 0, n);
  else
    tiled_t(a, b, c, m, k, n, plo, phi);
}

#endif /* PPVI_AVX2 */

/* Whether this CPU (and OS) runs the AVX2 body. [Kernel] asks once. */
CAMLprim value ppvi_kernel_avx2(value unit) {
  (void)unit;
#ifdef PPVI_AVX2
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("avx2"));
#else
  return Val_false;
#endif
}

/* ------------------------------------------------------------------ */
/* Entry points. The three tiled products take the body as their last
   argument; [Kernel] only ever passes AVX2 when [ppvi_kernel_avx2]
   said yes. */

/* c[i, jlo..jhi) += a[i, p] * b[p, jlo..jhi) for i in [lo, hi), with
   the column tile applied by the OCaml caller. Skips a[i,p] == 0. */
CAMLprim value ppvi_matmul_block(value va, value vb, value vc, value vk,
                                 value vn, value vlo, value vhi,
                                 value vjlo, value vjhi, value vbody) {
  const double *a = DATA(va), *b = DATA(vb);
  double *c = DATA(vc);
  long k = Long_val(vk), n = Long_val(vn);
  long lo = Long_val(vlo), hi = Long_val(vhi);
  long jlo = Long_val(vjlo), jhi = Long_val(vjhi);
  (void)vbody;
#ifdef PPVI_AVX2
  if (Long_val(vbody) == BODY_AVX2) {
    matmul_avx2(a, b, c, k, n, lo, hi, jlo, jhi);
    return Val_unit;
  }
#endif
  saxpy_rows(a, b, c, k, n, lo, hi, jlo, jhi, 1);
  return Val_unit;
}

CAMLprim value ppvi_matmul_block_bc(value *argv, int argn) {
  (void)argn;
  return ppvi_matmul_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5], argv[6], argv[7], argv[8], argv[9]);
}

/* c[i, j] = sum_p a[i, p] * b[j, p] for i in [lo, hi): the A * B^T
   form. Sequential accumulation per output element, no zero-skip —
   matching the OCaml matmul_t. The p-chain is a single dependent
   accumulator, so this one gains only scalar codegen, not SIMD. */
CAMLprim value ppvi_matmul_t_block(value va, value vb, value vc, value vk,
                                   value vn, value vlo, value vhi) {
  const double *a = DATA(va), *b = DATA(vb);
  double *c = DATA(vc);
  long k = Long_val(vk), n = Long_val(vn);
  long lo = Long_val(vlo), hi = Long_val(vhi);
  for (long i = lo; i < hi; i++) {
    const double *arow = a + i * k;
    double *crow = c + i * n;
    for (long j = 0; j < n; j++) {
      const double *brow = b + j * k;
      double acc = 0.;
      for (long p = 0; p < k; p++) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
  return Val_unit;
}

CAMLprim value ppvi_matmul_t_block_bc(value *argv, int argn) {
  (void)argn;
  return ppvi_matmul_t_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6]);
}

/* c[p, 0..n) += a[i, p] * b[i, 0..n) for p in [plo, phi), i ascending:
   the A^T * B form. Skips a[i,p] == 0. */
CAMLprim value ppvi_t_matmul_block(value va, value vb, value vc, value vm,
                                   value vk, value vn, value vplo,
                                   value vphi, value vbody) {
  const double *a = DATA(va), *b = DATA(vb);
  double *c = DATA(vc);
  long m = Long_val(vm), k = Long_val(vk), n = Long_val(vn);
  long plo = Long_val(vplo), phi = Long_val(vphi);
  (void)vbody;
#ifdef PPVI_AVX2
  if (Long_val(vbody) == BODY_AVX2) {
    t_matmul_avx2(a, b, c, m, k, n, plo, phi);
    return Val_unit;
  }
#endif
  saxpy_t_rows(a, b, c, m, k, n, plo, phi, 0, n);
  return Val_unit;
}

CAMLprim value ppvi_t_matmul_block_bc(value *argv, int argn) {
  (void)argn;
  return ppvi_t_matmul_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6], argv[7], argv[8]);
}

/* y[i] = sum_p a[i, p] * x[p] for i in [lo, hi). Sequential per-output
   accumulation, no zero-skip — matching the OCaml matvec. */
CAMLprim value ppvi_matvec_block(value va, value vx, value vy, value vk,
                                 value vlo, value vhi) {
  const double *a = DATA(va), *x = DATA(vx);
  double *y = DATA(vy);
  long k = Long_val(vk);
  long lo = Long_val(vlo), hi = Long_val(vhi);
  for (long i = lo; i < hi; i++) {
    const double *arow = a + i * k;
    double acc = 0.;
    for (long p = 0; p < k; p++) acc += arow[p] * x[p];
    y[i] = acc;
  }
  return Val_unit;
}

/* y[plo..phi) += x[i] * a[i, plo..phi), i ascending — A^T x. Skips
   x[i] == 0 like the reference ([t_matvec] via [saxpy_row]). */
CAMLprim value ppvi_t_matvec_block(value va, value vx, value vy, value vm,
                                   value vk, value vplo, value vphi) {
  const double *a = DATA(va), *x = DATA(vx);
  double *y = DATA(vy);
  long m = Long_val(vm), k = Long_val(vk);
  long plo = Long_val(vplo), phi = Long_val(vphi);
  for (long i = 0; i < m; i++) {
    double xi = x[i];
    if (xi != 0.) {
      const double *arow = a + i * k;
      for (long p = plo; p < phi; p++) y[p] += xi * arow[p];
    }
  }
  return Val_unit;
}

/* y[jlo..jhi) += x[p] * b[p, jlo..jhi), p ascending — x B. Skips
   x[p] == 0 like the reference. */
CAMLprim value ppvi_vecmat_block(value vx, value vb, value vy, value vk,
                                 value vn, value vjlo, value vjhi) {
  const double *x = DATA(vx), *b = DATA(vb);
  double *y = DATA(vy);
  long k = Long_val(vk), n = Long_val(vn);
  long jlo = Long_val(vjlo), jhi = Long_val(vjhi);
  for (long p = 0; p < k; p++) {
    double xp = x[p];
    if (xp != 0.) {
      const double *brow = b + p * n;
      for (long j = jlo; j < jhi; j++) y[j] += xp * brow[j];
    }
  }
  return Val_unit;
}

CAMLprim value ppvi_vecmat_block_bc(value *argv, int argn) {
  (void)argn;
  return ppvi_vecmat_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5], argv[6]);
}

CAMLprim value ppvi_t_matvec_block_bc(value *argv, int argn) {
  (void)argn;
  return ppvi_t_matvec_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6]);
}

CAMLprim value ppvi_matvec_block_bc(value *argv, int argn) {
  (void)argn;
  return ppvi_matvec_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5]);
}

/* bt[p, j] = b[j, p]: materialize B^T so matmul_t can run in saxpy
   form. Pure data movement — no arithmetic, so no rounding at all. */
CAMLprim value ppvi_transpose_into(value vb, value vbt, value vn, value vk) {
  const double *b = DATA(vb);
  double *bt = DATA(vbt);
  long n = Long_val(vn), k = Long_val(vk);
  for (long j = 0; j < n; j++) {
    const double *brow = b + j * k;
    for (long p = 0; p < k; p++) bt[p * n + j] = brow[p];
  }
  return Val_unit;
}

/* c[i, jlo..jhi) += a[i, p] * bt[p, jlo..jhi) for i in [lo, hi), p
   ascending, NO zero-skip. With bt = B^T this accumulates exactly the
   matmul_t reference terms (a[i,p] * b[j,p], p ascending) per output
   element, in saxpy form so the j lanes vectorize. */
CAMLprim value ppvi_matmul_nt_block(value va, value vbt, value vc, value vk,
                                    value vn, value vlo, value vhi,
                                    value vjlo, value vjhi, value vbody) {
  const double *a = DATA(va), *bt = DATA(vbt);
  double *c = DATA(vc);
  long k = Long_val(vk), n = Long_val(vn);
  long lo = Long_val(vlo), hi = Long_val(vhi);
  long jlo = Long_val(vjlo), jhi = Long_val(vjhi);
  (void)vbody;
#ifdef PPVI_AVX2
  if (Long_val(vbody) == BODY_AVX2) {
    matmul_nt_avx2(a, bt, c, k, n, lo, hi, jlo, jhi);
    return Val_unit;
  }
#endif
  saxpy_rows(a, bt, c, k, n, lo, hi, jlo, jhi, 0);
  return Val_unit;
}

CAMLprim value ppvi_matmul_nt_block_bc(value *argv, int argn) {
  (void)argn;
  return ppvi_matmul_nt_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5], argv[6], argv[7], argv[8], argv[9]);
}

//! Single-precision general matrix multiply.
//!
//! `gemm` computes `C ← α·op(A)·op(B) + β·C` for row-major matrices, with
//! optional transposition of either operand — the workhorse behind every
//! worker's forward/backward pass (dense layers and im2col convolution),
//! so its efficiency decides whether the repo's benchmark ratios measure
//! the paper's *communication* co-design or mere kernel waste.
//!
//! Three tiers, picked by a `2·m·n·k` flop count (see DESIGN.md §8):
//!
//! * **tiny** — a direct row loop; packing overhead would dominate.
//! * **blocked serial** — the cache-blocked packed kernel: A- and
//!   B-panels are packed once per `MC×KC` / `KC×NC` block into
//!   contiguous, microkernel-ordered buffers, and the explicit `MR×NR`
//!   broadcast-FMA register tile in [`crate::simd`] (hand-tiled AVX-512 /
//!   AVX2 intrinsics behind a bit-identical scalar fallback — see
//!   DESIGN.md §15) does the flops. All four [`Transpose`] combinations
//!   are normalized away by the packing step, so the microkernel sees
//!   one layout. Skinny outputs (`m ≤ 64` — the fully-connected layers
//!   of a small-batch step) switch to a column-major nest that keeps the
//!   register tiles live across every `KC` block, touching C once
//!   instead of `k/KC` times (the `vgg_fc6` cliff fix, DESIGN.md §15).
//! * **blocked parallel** — the same kernel fanned out over
//!   `MR`/`NR`-aligned bands of the output's *larger* dimension (so
//!   skinny-M layers split over N rather than serializing on one row
//!   band), each band running the serial loop nest with the real `β`,
//!   so the result is bit-identical to `gemm_serial`. Only memory-bound
//!   calls take it — fewer than 4 flops per byte of operand and output
//!   traffic, every GEMM of a small-batch step over a wide layer. Scoped
//!   helper threads read op(A)/op(B) in place and write row bands of C
//!   directly (column bands through a recycled staging window).
//!   Compute-bound calls stay serial, sparing each one a thread start
//!   (DESIGN.md §8.2).
//!
//! A weight operand reused across many calls can be staged once into the
//! skinny nest's strip layout ([`PackedB`]); [`gemm_packed`] then runs
//! that nest over it, bit-identical to [`gemm_rowstable`] (the served
//! replicas' dense layers, DESIGN.md §16.5).
//!
//! The seed's naive kernel is retained as [`gemm_naive`] /
//! [`gemm_naive_par`] so every future optimization can be A/B-measured
//! in-repo (`cargo run --release -p easgd-bench --bin kernels`).

use crate::par;
use crate::simd::{self, MR, NR};

/// Whether an operand is used as stored or transposed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// Use the matrix as stored.
    No,
    /// Use the transpose of the stored matrix.
    Yes,
}

/// Rows of packed A per L2-resident block (multiple of `MR`).
const MC: usize = 256;
/// Shared inner dimension per panel: `MR·KC` floats of A-panel and
/// `NR·KC` of B-panel stay L1-resident inside the microkernel.
const KC: usize = 256;
/// Columns of packed B per outer block (multiple of `NR`); bounds the
/// packed-B working set to `KC·NC` floats.
const NC: usize = 2048;

/// Below this many flops (`2·m·n·k`) the direct row loop wins: packing
/// would touch more memory than the multiply itself.
const SMALL_FLOPS: u64 = 1 << 17;
/// Below this many flops parallel dispatch (a ~40 µs scoped thread
/// start per extra band) costs more than it saves. Applied uniformly to
/// every transpose combination — the old `m·n` element threshold
/// misjudged tall-skinny and wide-flat shapes (an `m×1` weight-gradient
/// GEMM has `m` output elements but `2·m·k` flops).
const PAR_FLOPS: u64 = 8 << 20;

// The microkernel spells out its MR row accumulators as straight-line
// locals, so the row count is pinned at compile time.
const _: () = assert!(MR == 8, "microkernel is hand-unrolled for MR = 8");

/// Output row count at or below which the skinny nest applies (together
/// with `k > KC`, the regime where the standard nest's repeated C passes
/// dominate): a whole `mc0 ≤ SKINNY_M` row block fits one persistent
/// register-tile column of at most `SKINNY_M/MR` accumulators.
const SKINNY_M: usize = 64;
const _: () = assert!(
    SKINNY_M.is_multiple_of(MR),
    "skinny tile column must be whole tiles"
);

/// Column-panel width of the skinny nest: the staged B strips for one
/// panel (`SKINNY_NC·KC` floats ≈ 224 KiB) stay L2-resident, so B's rows
/// are read from DRAM exactly once *in row-major streaming order* — the
/// per-tile strip copy of the standard nest walks rows at an `n`-float
/// stride (16 KiB for the 4096-wide fc layers), which lands every read
/// in the same L1 set and defeats the DRAM prefetcher entirely.
const SKINNY_NC: usize = 224;
const _: () = assert!(
    SKINNY_NC.is_multiple_of(NR),
    "skinny panel must be whole tiles"
);

/// Pad (in floats, one cache line) between consecutive staged strips:
/// an unpadded strip stride of `KC·NR` floats (32 KiB) would alias every
/// strip's row-`p` sliver to the same L1 set during the scatter.
const STRIP_SKEW: usize = 16;

/// Whether a `mc0`-row output window with inner dimension `k` should run
/// the column-major skinny nest ([`skinny_accumulate`]) instead of the
/// standard one. Skinny outputs lose most of their time in the standard
/// nest re-reading and re-writing C once per `KC` block (`k/KC` sweeps of
/// a tile that never leaves a handful of registers in the skinny nest);
/// at `k ≤ KC` there is only one pass, so the nests are identical work.
fn use_skinny_nest(mc0: usize, k: usize) -> bool {
    #[cfg(test)]
    if FORCE_STANDARD_NEST.with(|f| f.get()) {
        return false;
    }
    mc0 <= SKINNY_M && k > KC
}

#[cfg(test)]
thread_local! {
    /// Test-only override: route skinny shapes through the standard nest
    /// so the two nests can be compared bit-for-bit.
    static FORCE_STANDARD_NEST: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with the skinny nest disabled on this thread (test-only; see
/// [`FORCE_STANDARD_NEST`]). Restores the previous state on unwind.
#[cfg(test)]
fn with_standard_nest<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_STANDARD_NEST.with(|flag| flag.set(self.0));
        }
    }
    let _guard = Reset(FORCE_STANDARD_NEST.with(|flag| flag.replace(true)));
    f()
}

/// Flop count of one GEMM call (each output element takes `k` fused
/// multiply-adds = `2k` flops).
fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[allow(clippy::too_many_arguments)]
fn check_dims(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &[f32]) {
    assert!(
        a.len() >= m * k,
        "A buffer too small: {} < {}",
        a.len(),
        m * k
    );
    assert!(
        b.len() >= k * n,
        "B buffer too small: {} < {}",
        b.len(),
        k * n
    );
    assert!(
        c.len() >= m * n,
        "C buffer too small: {} < {}",
        c.len(),
        m * n
    );
}

/// `C ← β·C` over the `m·n` output region.
fn apply_beta(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.iter_mut().for_each(|x| *x = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|x| *x *= beta);
    }
}

/// `C ← α·op(A)·op(B) + β·C`.
///
/// Dimensions are those of the *operated* matrices: `op(A)` is `m×k`,
/// `op(B)` is `k×n`, `C` is `m×n`. All matrices are dense row-major.
///
/// # Panics
/// Panics if any buffer is smaller than its dimensions imply.
// BLAS sgemm signature by design: callers pass the full (op, dims, scalars,
// buffers) tuple exactly as in the reference interface.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    if k == 0 || alpha == 0.0 {
        apply_beta(c, beta);
        return;
    }
    if gemm_flops(m, n, k) < SMALL_FLOPS {
        apply_beta(c, beta);
        naive_rows(ta, tb, m, n, k, alpha, a, b, c);
        return;
    }
    blocked_dispatch(ta, tb, m, n, k, alpha, a, b, beta, c);
}

/// `C ← α·op(A)·op(B) + β·C` with the kernel chosen by **per-row** work
/// `2·n·k` instead of the total `2·m·n·k`.
///
/// [`gemm`]'s tiny/blocked split keys on total flops, so the same output
/// row can be computed by the direct row loop in one call and the packed
/// FMA kernel in another purely because the calls carry different row
/// counts — the two kernels round differently (`mul_add` vs separate
/// mul/add), so row bits depend on batch size. Serving dispatches
/// *ragged* batches and promises a request the exact bits it would get
/// in any other batch (the eval-mode batch-size-invariance contract, see
/// `easgd-serve`), so its eval path needs a dispatch that is a pure
/// function of the per-row shape `(n, k)`.
///
/// Every blocked variant (serial, skinny, SIMD tiers, banded parallel) is
/// pinned bit-identical per row, and both kernels compute row `r` from
/// row `r` of `op(A)` alone, so per-row dispatch makes the whole result
/// row-stable: parallelism may still engage by total flops without
/// affecting bits.
///
/// # Panics
/// Panics if any buffer is smaller than its dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rowstable(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    if k == 0 || alpha == 0.0 {
        apply_beta(c, beta);
        return;
    }
    if gemm_flops(1, n, k) < SMALL_FLOPS {
        apply_beta(c, beta);
        naive_rows(ta, tb, m, n, k, alpha, a, b, c);
        return;
    }
    // Same fan-out as `gemm` (total-flops keyed): the parallel path is
    // bit-identical to the serial one, so this m-dependence cannot change
    // bits.
    blocked_dispatch(ta, tb, m, n, k, alpha, a, b, beta, c);
}

/// The blocked kernel forced onto the calling thread (no bands), for
/// single-threaded A/B measurement against [`gemm_naive`].
///
/// # Panics
/// Panics if any buffer is smaller than its dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm_serial(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    if k == 0 || alpha == 0.0 {
        apply_beta(c, beta);
        return;
    }
    blocked_accumulate(ta, tb, m, n, k, 0, m, 0, n, alpha, a, b, beta, c, n);
}

/// The layout of a `k×n` operand `op(B)` staged once into the skinny
/// nest's strip order, for a weight operand that many GEMM calls reuse
/// unchanged (a served replica's fully-connected layers: DESIGN.md
/// §16.5). The strips live in a caller-owned buffer of [`len`] floats
/// — a served replica keeps them in its parameter arena.
///
/// [`gemm_rowstable`] re-stages all of `op(B)` into microkernel strips on
/// every call, whatever `m` is — for a batch-1 request that staging costs
/// more than the flops. Packing pays it once: [`pack`] lays the strips of
/// every (`SKINNY_NC`-column panel, `KC` block, `NR`-wide tile) back to
/// back in exactly the order [`skinny_accumulate`] consumes them
/// (panel-major, then block, then tile; each strip `kcb·NR` floats in
/// `[p][j]` order, a short last tile zero-padded), and [`gemm_packed`]
/// runs that nest's panel loop straight over them. The buffer is
/// exactly `⌈n/NR⌉·NR·k` floats: the operand plus its last tile's
/// padding.
///
/// [`len`]: PackedB::len
/// [`pack`]: PackedB::pack
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedB {
    k: usize,
    n: usize,
}

impl PackedB {
    /// The packed layout of a `k×n` operand.
    pub fn new(k: usize, n: usize) -> Self {
        Self { k, n }
    }

    /// Floats the strips occupy (the operand plus last-tile padding).
    pub fn len(&self) -> usize {
        self.n.div_ceil(NR) * NR * self.k
    }

    /// True for an operand with no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether packing reproduces [`gemm_rowstable`]: true exactly when
    /// the per-row flops `2·n·k` reach the blocked kernel (below that,
    /// `gemm_rowstable` runs the direct row loop, whose rounding differs,
    /// and packing would not pay anyway).
    pub fn worth_packing(&self) -> bool {
        gemm_flops(1, self.n, self.k) >= SMALL_FLOPS
    }

    /// Stages `op(B)` into `strips` (`b` stored `k×n` row-major for
    /// [`Transpose::No`], `n×k` for [`Transpose::Yes`]).
    ///
    /// # Panics
    /// Panics if `b` holds fewer than `k·n` floats or `strips` is not
    /// exactly [`len`](Self::len) floats.
    pub fn pack(&self, tb: Transpose, b: &[f32], strips: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        assert!(
            b.len() >= k * n,
            "B buffer too small: {} < {}",
            b.len(),
            k * n
        );
        assert_eq!(strips.len(), self.len(), "packed buffer size mismatch");
        let mut at = 0;
        let mut jp = 0;
        while jp < n {
            let pw = SKINNY_NC.min(n - jp);
            let mut pc = 0;
            while pc < k {
                let kcb = KC.min(k - pc);
                for t in 0..pw.div_ceil(NR) {
                    let jc = jp + t * NR;
                    let jn = NR.min(n - jc);
                    pack_b(tb, b, k, n, pc, kcb, jc, jn, &mut strips[at..][..kcb * NR]);
                    at += kcb * NR;
                }
                pc += kcb;
            }
            jp += pw;
        }
    }

    /// [`pack`](Self::pack) without a second copy of the operand: `buf`
    /// holds `op(B)` stored transposed (`n×k` row-major, the
    /// [`Transpose::Yes`] layout of a dense layer's weight) in its first
    /// `k·n` floats and is rewritten into the packed layout, exactly
    /// [`len`](Self::len) floats. A full `SKINNY_NC` panel occupies the
    /// same range in both layouts, so each is permuted in place by
    /// following cycles (a bitmap of visited slots is the only scratch);
    /// the short last panel, which gains tile padding, is packed from a
    /// copy of its own rows.
    ///
    /// # Panics
    /// Panics unless `buf` is exactly [`len`](Self::len) floats.
    pub fn pack_in_place(&self, buf: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        assert_eq!(buf.len(), self.len(), "packed buffer size mismatch");
        if buf.is_empty() {
            return;
        }
        let panel_len = SKINNY_NC * k;
        let full = n / SKINNY_NC;
        let tail = n - full * SKINNY_NC;
        if tail > 0 {
            let start = full * panel_len;
            let rows = buf[start..start + tail * k].to_vec();
            PackedB::new(k, tail).pack(Transpose::Yes, &rows, &mut buf[start..]);
        }
        // Row `r`, column `c` of a full panel's stored rows goes to tile
        // `r / NR`, column `r % NR` of the strip for KC block `c / KC`.
        let dest = |i: usize| {
            let (r, c) = (i / k, i % k);
            let (pc, p) = (c - c % KC, c % KC);
            let kcb = KC.min(k - pc);
            SKINNY_NC * pc + (r / NR) * kcb * NR + p * NR + r % NR
        };
        let mut visited = vec![0u64; panel_len.div_ceil(64)];
        for panel in buf[..full * panel_len].chunks_exact_mut(panel_len) {
            visited.fill(0);
            for start in 0..panel_len {
                if visited[start / 64] & (1 << (start % 64)) != 0 {
                    continue;
                }
                let mut val = panel[start];
                let mut at = start;
                loop {
                    at = dest(at);
                    std::mem::swap(&mut val, &mut panel[at]);
                    visited[at / 64] |= 1 << (at % 64);
                    if at == start {
                        break;
                    }
                }
            }
        }
    }
}

/// `C ← α·op(A)·B + β·C` over `B` prepacked into `strips` with layout
/// `b` (`op(A)` is `m×k`, `C` is `m×n`, with `k`, `n` from `b`).
///
/// Serves any `m` in row blocks of at most `SKINNY_M` through
/// [`skinny_accumulate`]'s panel loop, reading the strips instead of
/// staging them. For every layout with [`PackedB::worth_packing`] the
/// result is bit-identical to [`gemm_rowstable`] over the unpacked
/// operand: that kernel runs the same microkernel chain per row (its
/// serial, skinny, parallel and standard-nest variants are all pinned
/// bit-identical per row), with the same `α` seeding, `β` blend and
/// `KC` block order. Runs on the calling thread; A-panel scratch comes
/// from the thread-local `PACK_SCRATCH`, so a warm call never allocates.
///
/// # Panics
/// Panics if `a` or `c` is smaller than its dimensions imply, or
/// `strips` is not exactly `b.len()` floats.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed(
    ta: Transpose,
    m: usize,
    alpha: f32,
    a: &[f32],
    b: PackedB,
    strips: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    let (n, k) = (b.n, b.k);
    assert_eq!(strips.len(), b.len(), "packed buffer size mismatch");
    check_dims(m, n, k, a, strips, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    if k == 0 || alpha == 0.0 {
        apply_beta(c, beta);
        return;
    }
    PACK_SCRATCH.with(|cell| {
        let (ap, _) = &mut *cell.borrow_mut();
        let ap_len = m.min(SKINNY_M).div_ceil(MR) * MR * k;
        if ap.len() < ap_len {
            ap.resize(ap_len, 0.0);
        }
        for (blk, c_blk) in c.chunks_mut(SKINNY_M * n).enumerate() {
            let (i0, mc0) = (blk * SKINNY_M, c_blk.len() / n);
            let src = Packed(strips);
            skinny_accumulate(ta, m, k, i0, mc0, 0, n, alpha, a, src, beta, c_blk, n, ap);
        }
    });
}

// ---------------------------------------------------------------------------
// Packing: normalize any (Transpose, layout) into the microkernel order.
// ---------------------------------------------------------------------------

/// Packs `op(A)[ic..ic+mcb, pc..pc+kcb]` into `ap` as row-tiles of `MR`:
/// layout `[tile][p][r]`, short tiles zero-padded so the microkernel
/// always runs full-width.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    ta: Transpose,
    a: &[f32],
    m: usize,
    k: usize,
    ic: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    ap: &mut [f32],
) {
    let tiles = mcb.div_ceil(MR);
    for it in 0..tiles {
        let dst = &mut ap[it * kcb * MR..(it + 1) * kcb * MR];
        let rows = MR.min(mcb - it * MR);
        match ta {
            Transpose::No => {
                // op(A)[i][l] = a[i·k + l]: rows are contiguous in `l`.
                for r in 0..MR {
                    if r < rows {
                        let src = &a[(ic + it * MR + r) * k + pc..][..kcb];
                        for (p, &v) in src.iter().enumerate() {
                            dst[p * MR + r] = v;
                        }
                    } else {
                        for p in 0..kcb {
                            dst[p * MR + r] = 0.0;
                        }
                    }
                }
            }
            Transpose::Yes => {
                // op(A)[i][l] = a[l·m + i]: each `p` step is contiguous
                // in `r`, so copy MR-wide slivers.
                let base = ic + it * MR;
                for p in 0..kcb {
                    let d = &mut dst[p * MR..(p + 1) * MR];
                    let src = &a[(pc + p) * m + base..][..rows];
                    d[..rows].copy_from_slice(src);
                    d[rows..].iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }
    }
}

/// Packs `op(B)[pc..pc+kcb, jc..jc+ncb]` into `bp` as column-tiles of
/// `NR`: layout `[tile][p][j]`, zero-padded like [`pack_a`].
#[allow(clippy::too_many_arguments)]
fn pack_b(
    tb: Transpose,
    b: &[f32],
    k: usize,
    n: usize,
    pc: usize,
    kcb: usize,
    jc: usize,
    ncb: usize,
    bp: &mut [f32],
) {
    let tiles = ncb.div_ceil(NR);
    for jt in 0..tiles {
        let dst = &mut bp[jt * kcb * NR..(jt + 1) * kcb * NR];
        let cols = NR.min(ncb - jt * NR);
        match tb {
            Transpose::No => {
                // op(B)[l][j] = b[l·n + j]: each `p` step is contiguous in `j`.
                if cols == NR {
                    // Full-width tile — the hot case: explicit vector
                    // strip copy, which overlaps the strided row misses
                    // where a per-row memcpy call would serialize them.
                    simd::pack_strip(b, pc * n + jc + jt * NR, n, kcb, dst);
                } else {
                    for p in 0..kcb {
                        let d = &mut dst[p * NR..(p + 1) * NR];
                        let src = &b[(pc + p) * n + jc + jt * NR..][..cols];
                        d[..cols].copy_from_slice(src);
                        d[cols..].iter_mut().for_each(|v| *v = 0.0);
                    }
                }
            }
            Transpose::Yes => {
                // op(B)[l][j] = b[j·k + l]: columns are contiguous in `l`.
                for j in 0..NR {
                    if j < cols {
                        let src = &b[(jc + jt * NR + j) * k + pc..][..kcb];
                        for (p, &v) in src.iter().enumerate() {
                            dst[p * NR + j] = v;
                        }
                    } else {
                        for p in 0..kcb {
                            dst[p * NR + j] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Micro / macro kernels.
// ---------------------------------------------------------------------------

/// Adds `α·acc` into the `mr×nr` valid corner of the C tile at
/// `(row0, col0)` of a row-major region with row stride `ldc`.
#[allow(clippy::too_many_arguments)]
fn write_tile(
    acc: &[[f32; NR]; MR],
    alpha: f32,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
) {
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let crow = &mut c[(row0 + r) * ldc + col0..][..nr];
        for (cj, accj) in crow.iter_mut().zip(accr.iter()) {
            *cj += alpha * accj;
        }
    }
}

/// First-`KC`-pass tile write: `C ← α·acc + β·C`, so the caller needs no
/// separate `β·C` sweep over the output before the loop nest. With
/// `β = 0` the tile is *stored*, not read — the common `C = A·B` case
/// never reads the old C at all, saving one full read-modify-write pass
/// over the output per call.
#[allow(clippy::too_many_arguments)]
fn write_tile_blend(
    acc: &[[f32; NR]; MR],
    alpha: f32,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
) {
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let crow = &mut c[(row0 + r) * ldc + col0..][..nr];
        if beta == 0.0 {
            for (cj, accj) in crow.iter_mut().zip(accr.iter()) {
                *cj = alpha * accj;
            }
        } else {
            for (cj, accj) in crow.iter_mut().zip(accr.iter()) {
                *cj = alpha * accj + beta * *cj;
            }
        }
    }
}

/// `C[i0.., j0..] ← α · op(A)[i0..i0+mc0, :] · op(B)[:, j0..j0+nc0] + β·C`
/// with the full blocked loop nest. `c` is the row-major region holding
/// exactly that output window (row stride `ldc`, origin at `(i0, j0)`).
///
/// `β` is folded into the first `KC` pass (`pc == 0`), which blends or —
/// for `β = 0` — plainly stores each tile; later passes accumulate. The
/// caller must not pre-scale C. Requires `k ≥ 1` so the first pass
/// exists (callers handle `k = 0` as pure `β·C`).
#[allow(clippy::too_many_arguments)]
fn blocked_accumulate(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    mc0: usize,
    j0: usize,
    nc0: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    // Packing scratch is thread-local and grows monotonically: a GEMM in
    // a warmed-up training step touches the allocator zero times. The
    // panels are fully overwritten by `pack_a`/`pack_b` (short tiles are
    // zero-padded explicitly), so dirty reuse is safe.
    PACK_SCRATCH.with(|cell| {
        let (ap, bp) = &mut *cell.borrow_mut();
        let (ap_len, bp_len) = pack_lens(mc0, nc0, k);
        grow(ap, ap_len);
        grow(bp, bp_len);
        blocked_accumulate_with(
            ta, tb, m, n, k, i0, mc0, j0, nc0, alpha, a, b, beta, c, ldc, ap, bp,
        );
    });
}

/// Floats of (A-panel, B-panel) packing scratch the loop nest needs for
/// an `mc0×nc0` output window with inner dimension `k`.
fn pack_lens(mc0: usize, nc0: usize, k: usize) -> (usize, usize) {
    // The skinny nest packs *all* of op(A)'s K extent up front (the
    // whole row block is at most SKINNY_M·k floats — e.g. 512 KiB for
    // the 32×4096×4096 fc layer); the standard nest packs one MC×KC
    // block at a time.
    let ap_len = if use_skinny_nest(mc0, k) {
        mc0.div_ceil(MR) * MR * k
    } else {
        MC * KC
    };
    let bp_cols = NC.min(nc0.next_multiple_of(NR));
    // The skinny nest's staged strips carry a `STRIP_SKEW` pad each,
    // so its panel needs slightly more than `KC·panel_cols` floats.
    let skinny_tiles = nc0.div_ceil(NR).min(SKINNY_NC / NR);
    let bp_len = (KC * bp_cols).max(skinny_tiles * (KC * NR + STRIP_SKEW));
    (ap_len, bp_len)
}

/// Grows `buf` to at least `len` floats (monotone scratch: dirty reuse is
/// safe because every consumer overwrites what it reads).
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

thread_local! {
    /// Per-thread (A-panel, B-panel) packing buffers for
    /// [`blocked_accumulate`]; see the reuse note there.
    static PACK_SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// [`blocked_accumulate`] against caller-provided packing buffers.
#[allow(clippy::too_many_arguments)]
fn blocked_accumulate_with(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    i0: usize,
    mc0: usize,
    j0: usize,
    nc0: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    ap: &mut [f32],
    bp: &mut [f32],
) {
    // Skinny outputs take the column-major nest when the caller sized
    // `ap` for it (always true via `blocked_accumulate`; band jobs and
    // tests reach here the same way).
    if use_skinny_nest(mc0, k) && ap.len() >= mc0.div_ceil(MR) * MR * k {
        let strips = Staged { tb, b, n, bp };
        skinny_accumulate(
            ta, m, k, i0, mc0, j0, nc0, alpha, a, strips, beta, c, ldc, ap,
        );
        return;
    }
    let mut jc = j0;
    while jc < j0 + nc0 {
        let ncb = NC.min(j0 + nc0 - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            pack_b(tb, b, k, n, pc, kcb, jc, ncb, bp);
            let mut ic = i0;
            while ic < i0 + mc0 {
                let mcb = MC.min(i0 + mc0 - ic);
                pack_a(ta, a, m, k, ic, mcb, pc, kcb, ap);
                let row_tiles = mcb.div_ceil(MR);
                let col_tiles = ncb.div_ceil(NR);
                for jt in 0..col_tiles {
                    let bpanel = &bp[jt * kcb * NR..(jt + 1) * kcb * NR];
                    for it in 0..row_tiles {
                        let apanel = &ap[it * kcb * MR..(it + 1) * kcb * MR];
                        let acc = simd::microkernel(apanel, bpanel);
                        let row0 = ic - i0 + it * MR;
                        let col0 = jc - j0 + jt * NR;
                        let mr = MR.min(mcb - it * MR);
                        let nr = NR.min(ncb - jt * NR);
                        if pc == 0 {
                            write_tile_blend(&acc, alpha, beta, c, ldc, row0, col0, mr, nr);
                        } else {
                            write_tile(&acc, alpha, c, ldc, row0, col0, mr, nr);
                        }
                    }
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// Where the skinny nest's panel loop takes its `NR`-wide B strips from
/// (a static choice, so each source compiles to its own loop nest).
trait Strips {
    /// The strips of `KC` block `pc..pc+kcb` for the `pw`-column panel
    /// starting at column `jc0` of `op(B)`, and their stride in floats.
    fn block(&mut self, k: usize, pc: usize, kcb: usize, jc0: usize, pw: usize) -> (&[f32], usize);
}

/// Stages each `(panel, KC block)` from `op(B)` (stored `k×n` for
/// `Transpose::No`, `n×k` for `Transpose::Yes`) into `bp`, skew-padded
/// `STRIP_SKEW` floats apart, just before its microkernels run.
struct Staged<'a> {
    tb: Transpose,
    b: &'a [f32],
    n: usize,
    bp: &'a mut [f32],
}

impl Strips for Staged<'_> {
    fn block(&mut self, k: usize, pc: usize, kcb: usize, jc0: usize, pw: usize) -> (&[f32], usize) {
        let stride = kcb * NR + STRIP_SKEW;
        // Row-major streaming reads; see `skinny_accumulate`.
        if self.tb == Transpose::No {
            stage_b_rows(self.b, self.n, pc, kcb, jc0, pw, stride, self.bp);
        } else {
            for t in 0..pw.div_ceil(NR) {
                let jc = jc0 + t * NR;
                let jn = NR.min(jc0 + pw - jc);
                let dst = &mut self.bp[t * stride..][..kcb * NR];
                pack_b(self.tb, self.b, k, self.n, pc, kcb, jc, jn, dst);
            }
        }
        (self.bp, stride)
    }
}

/// Reads the strips [`PackedB::pack`] laid out over the whole `k×n`
/// operand (so the nest's window must be `j0 = 0`, `nc0 = n`).
struct Packed<'a>(&'a [f32]);

impl Strips for Packed<'_> {
    fn block(&mut self, k: usize, pc: usize, kcb: usize, jc0: usize, pw: usize) -> (&[f32], usize) {
        // Panel `jc0` starts `jc0·k` floats in (every earlier panel is
        // SKINNY_NC wide), its block `pc` another `tiles·NR·pc` (the
        // earlier blocks' `kcb` sum to `pc`).
        let tiles = pw.div_ceil(NR);
        (&self.0[jc0 * k + tiles * NR * pc..], kcb * NR)
    }
}

/// The skinny-output nest: [`blocked_accumulate_with`] reorganized for
/// `mc0 ≤ SKINNY_M`, `k > KC` (small-batch fully-connected layers, e.g.
/// 32×4096×4096 `vgg_fc6`), and the whole of [`gemm_packed`].
///
/// The standard nest walks `pc` outermost, so every `KC` block rewrites
/// the whole `mc0×nc0` output — for `k = 4096` that is 16 read-modify-
/// write sweeps of a C that is itself bigger than L2, and throughput
/// collapses to memory bandwidth. Here the whole row block's A is packed
/// *once* up front (it is at most `SKINNY_M·k` floats), the output is
/// walked in `SKINNY_NC`-column panels, and one panel's worth of
/// accumulator tiles stays live in a stack array across *every* `KC`
/// block, so C is touched exactly once per element.
///
/// Within a panel, each `KC` block of B is staged into `NR`-wide strips
/// by [`stage_b_rows`] *before* any microkernel runs: the stage reads
/// B's rows in contiguous `SKINNY_NC`-float slivers (DRAM-prefetcher
/// friendly; B is read from memory exactly once overall) and the
/// microkernels then consume the ~512 KiB staged panel from L2. A naive
/// per-tile strip copy instead walks B at an `n`-float row stride —
/// 16 KiB for the fc layers, which maps every row to the same L1 set and
/// degenerates to uncovered DRAM latency per 128-byte sliver (measured
/// ~54 vs ~90+ GFLOP/s on 32×4096×4096). A [`Packed`] operand skips
/// the staging: the same strips were laid out once, at load.
///
/// Bit-identity with the standard nest: per output element the standard
/// nest computes `((α·t₀ ⊕β) + α·t₁) + α·t₂ …` where `t_p` is the
/// microkernel tile of `KC` block `p` (in order) and `⊕β` is the
/// first-pass blend of [`write_tile_blend`]. The accumulator here is
/// seeded `α·t₀ + β·C` with the same expression shape and then adds
/// `α·t_p` in the same `pc` order, so every element sees the identical
/// float operation sequence — only *where* the intermediate lives (stack
/// tile vs C row) changes; the panel/staging reorganization interleaves
/// *which tile* runs when, never the per-element chain order. The strip
/// source changes neither: staged and packed strips hold the same
/// values.
#[allow(clippy::too_many_arguments)]
fn skinny_accumulate(
    ta: Transpose,
    m: usize,
    k: usize,
    i0: usize,
    mc0: usize,
    j0: usize,
    nc0: usize,
    alpha: f32,
    a: &[f32],
    mut strips: impl Strips,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    ap: &mut [f32],
) {
    debug_assert!(mc0 <= SKINNY_M && mc0 > 0);
    let row_tiles = mc0.div_ceil(MR);

    // Pack every KC block of op(A)'s row stripe once. Block `pc` lands at
    // offset `row_tiles·MR·pc` — the sum of all earlier blocks' `kcb`
    // extents is exactly `pc`.
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        pack_a(
            ta,
            a,
            m,
            k,
            i0,
            mc0,
            pc,
            kcb,
            &mut ap[row_tiles * MR * pc..][..row_tiles * MR * kcb],
        );
        pc += kcb;
    }

    // One panel's worth of persistent accumulator tiles, indexed
    // `[t·row_tiles + it]`; `pc == 0` seeds every entry, so dirty reuse
    // across panels is safe. At most 128 KiB of stack.
    let mut acc = [[[0.0f32; NR]; MR]; (SKINNY_NC / NR) * (SKINNY_M / MR)];

    let mut jp = 0;
    while jp < nc0 {
        let pw = SKINNY_NC.min(nc0 - jp);
        let tiles = pw.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            let (panel, stride) = strips.block(k, pc, kcb, j0 + jp, pw);
            for t in 0..tiles {
                let strip = &panel[t * stride..][..kcb * NR];
                let jc = j0 + jp + t * NR;
                let jn = NR.min(j0 + nc0 - jc);
                for it in 0..row_tiles {
                    let at = &mut acc[t * row_tiles + it];
                    let apanel = &ap[row_tiles * MR * pc + it * kcb * MR..][..kcb * MR];
                    // Fused kernel: seeds α·t₀ everywhere at pc == 0
                    // (padding rows/cols included — they are never
                    // written back), adds α·t_p after.
                    simd::microkernel_acc(apanel, strip, alpha, at, pc == 0);
                    if pc == 0 && beta != 0.0 {
                        // Blend β·C into the valid corner with the
                        // `write_tile_blend` expression shape; β = 0
                        // never reads C.
                        let mr = MR.min(mc0 - it * MR);
                        for (r, atr) in at.iter_mut().enumerate().take(mr) {
                            let crow = &c[(it * MR + r) * ldc + (jc - j0)..][..jn];
                            for (av, cv) in atr.iter_mut().zip(crow.iter()) {
                                *av += beta * cv;
                            }
                        }
                    }
                }
            }
            pc += kcb;
        }
        // Single store pass over the panel's valid corners.
        for t in 0..tiles {
            let jc = j0 + jp + t * NR;
            let jn = NR.min(j0 + nc0 - jc);
            for it in 0..row_tiles {
                let at = &acc[t * row_tiles + it];
                let mr = MR.min(mc0 - it * MR);
                for (r, atr) in at.iter().enumerate().take(mr) {
                    let crow = &mut c[(it * MR + r) * ldc + (jc - j0)..][..jn];
                    crow.copy_from_slice(&atr[..jn]);
                }
            }
        }
        jp += pw;
    }
}

/// Stages `B[pc..pc+kcb, jc0..jc0+pw]` (no-transpose, row-major) into
/// `pw.div_ceil(NR)` microkernel strips of layout `[p][j]` at `stride`
/// floats apart in `bp`, zero-padding a short final tile. Reads walk B
/// one contiguous `pw`-float row sliver at a time — the whole point of
/// the skinny nest's staging (see [`skinny_accumulate`]) — and the
/// skewed `stride` keeps the per-row scatter writes out of a single L1
/// set.
#[allow(clippy::too_many_arguments)]
fn stage_b_rows(
    b: &[f32],
    n: usize,
    pc: usize,
    kcb: usize,
    jc0: usize,
    pw: usize,
    stride: usize,
    bp: &mut [f32],
) {
    let full = pw / NR;
    let tail = pw - full * NR;
    for p in 0..kcb {
        let src = &b[(pc + p) * n + jc0..][..pw];
        for (t, chunk) in src.chunks_exact(NR).enumerate() {
            // Fixed-size copy: two zmm (four ymm) moves, no memcpy call.
            // `chunks_exact(NR)` guarantees the chunk is exactly NR long,
            // so `first_chunk` never returns None.
            if let Some(chunk) = chunk.first_chunk::<NR>() {
                let dst = &mut bp[t * stride + p * NR..][..NR];
                dst.copy_from_slice(chunk);
            }
        }
        if tail != 0 {
            let dst = &mut bp[full * stride + p * NR..][..NR];
            dst[..tail].copy_from_slice(&src[full * NR..]);
            dst[tail..].iter_mut().for_each(|v| *v = 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel dispatch: borrowed bands on scoped threads.
// ---------------------------------------------------------------------------

/// The blocked kernel for one call past the tiny tier: fanned out over
/// the calling thread's compute threads on borrowed bands
/// ([`gemm_blocked_parallel`]) if the call is past `PAR_FLOPS` and
/// [`memory_bound`], else serial. Two cases stay serial whatever the
/// shape: a call made inside a pool job (the enclosing fan-out already
/// owns every core, DESIGN.md §17) and a call under a one-thread pool
/// override (a chip-partition group or a served replica that owns one
/// core) — neither starts a thread.
#[allow(clippy::too_many_arguments)]
fn blocked_dispatch(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    if gemm_flops(m, n, k) >= PAR_FLOPS && memory_bound(m, n, k) && !par::in_pool_job() {
        let threads = par::current_threads();
        if threads > 1 {
            gemm_blocked_parallel(threads, ta, tb, m, n, k, alpha, a, b, beta, c);
            return;
        }
    }
    blocked_accumulate(ta, tb, m, n, k, 0, m, 0, n, alpha, a, b, beta, c, n);
}

/// Flops per byte of unavoidable memory traffic at which a GEMM turns
/// compute-bound: the kernel runs at ~80 GFLOP/s per core and streams
/// memory at ~20 GB/s on the reference host (DESIGN.md §8.2).
const COMPUTE_BOUND_FLOPS_PER_BYTE: u64 = 4;

/// Whether a call is memory-bound — fewer than
/// [`COMPUTE_BOUND_FLOPS_PER_BYTE`] flops per byte of op(A) and op(B)
/// read once and C read and written once — and so fans out: a second
/// band adds a core's worth of bandwidth (the wide MLP's batch-4 GEMMs
/// ran at 5–8 GFLOP/s serially). Compute-bound calls (square shapes,
/// LeNet's batch-32 dense layers) run serially: a band split would
/// speed them up too, but each call's helper thread costs a thread
/// start and, across a training run, peak RSS (DESIGN.md §8.2).
fn memory_bound(m: usize, n: usize, k: usize) -> bool {
    let bytes = 4 * (m * k + k * n + 2 * m * n) as u64;
    gemm_flops(m, n, k) < COMPUTE_BOUND_FLOPS_PER_BYTE * bytes
}

/// Per-thread scratch of [`gemm_blocked_parallel`], owned by the calling
/// thread: every band's (A-panel, B-panel) packing pair, and the staged
/// output windows of a column split. Grows monotonically, so it does not
/// grow on a warm call, and the bands never allocate buffers of their
/// own. Starting each helper thread still allocates (std's thread
/// start-up, in the caller and in the new thread; DESIGN.md §8.2).
struct BandScratch {
    panels: Vec<(Vec<f32>, Vec<f32>)>,
    stage: Vec<f32>,
}

thread_local! {
    static BAND_SCRATCH: std::cell::RefCell<BandScratch> =
        const { std::cell::RefCell::new(BandScratch { panels: Vec::new(), stage: Vec::new() }) };
}

/// Floats of band scratch the calling thread holds (test hook for the
/// warm-call growth check).
#[cfg(test)]
fn band_scratch_floats() -> usize {
    BAND_SCRATCH.with(|cell| {
        let s = cell.borrow();
        s.stage.capacity()
            + s.panels
                .iter()
                .map(|(ap, bp)| ap.capacity() + bp.capacity())
                .sum::<usize>()
    })
}

/// Fans the blocked kernel out over `threads` threads with *borrowed*
/// operands: the output is split into at most `threads` `MR`/`NR`-aligned
/// bands along its larger dimension; band 0 runs on the calling thread
/// and every other band on a `std::thread::scope` helper. Each band
/// reads op(A)/op(B) in place. Row bands are disjoint row ranges of C
/// and are written in place; column bands (an output wider than tall)
/// are interleaved in memory, so each computes into its staged window of
/// [`BandScratch`] (seeded from C when `β ≠ 0`) and the caller copies
/// the windows back — `m·n` floats against `2·m·n·k` flops.
///
/// Every band runs [`blocked_accumulate_with`] with the real `β`, so it
/// performs the exact per-element operation sequence of [`gemm_serial`]
/// (β blended into the first `KC` pass, later passes accumulated in the
/// same `pc` order; bands start on `MR`/`NR` multiples, so register
/// tiles group the same rows/columns as the serial nest). Every output
/// element is owned by exactly one band, making the result bit-identical
/// to the serial kernel — and hence across runs and thread counts (the
/// Sync-EASGD determinism property extends down through the compute
/// kernel).
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_parallel(
    threads: usize,
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    let c = &mut c[..m * n];
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        apply_beta(c, beta);
        return;
    }
    let split_rows = m >= n;
    let (len, tile) = if split_rows { (m, MR) } else { (n, NR) };
    let band_len = len
        .div_ceil(threads.clamp(1, len.div_ceil(tile)))
        .next_multiple_of(tile);
    let bands = len.div_ceil(band_len);
    // Band `i`'s output window `(i0, mc0, j0, nc0)`.
    let window = |i: usize| {
        let start = i * band_len;
        let this = band_len.min(len - start);
        if split_rows {
            (start, this, 0, n)
        } else {
            (0, m, start, this)
        }
    };
    BAND_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let BandScratch { panels, stage } = scratch;
        // Size everything on the calling thread, before any helper
        // starts: the helpers only read and write borrowed memory.
        if panels.len() < bands {
            panels.resize_with(bands, Default::default);
        }
        for (i, (ap, bp)) in panels.iter_mut().take(bands).enumerate() {
            let (_, mc0, _, nc0) = window(i);
            let (ap_len, bp_len) = pack_lens(mc0, nc0, k);
            grow(ap, ap_len);
            grow(bp, bp_len);
        }
        let band = |i: usize, out: &mut [f32], ldc: usize, (ap, bp): &mut (Vec<f32>, Vec<f32>)| {
            let (i0, mc0, j0, nc0) = window(i);
            let (ap_len, bp_len) = pack_lens(mc0, nc0, k);
            blocked_accumulate_with(
                ta,
                tb,
                m,
                n,
                k,
                i0,
                mc0,
                j0,
                nc0,
                alpha,
                a,
                b,
                beta,
                out,
                ldc,
                &mut ap[..ap_len],
                &mut bp[..bp_len],
            );
        };
        if split_rows {
            fan_out_bands(c.chunks_mut(band_len * n), panels, |i, out, p| {
                band(i, out, n, p)
            });
            return;
        }
        grow(stage, m * n);
        let stage = &mut stage[..m * n];
        let c_in: &[f32] = c;
        fan_out_bands(stage.chunks_mut(m * band_len), panels, |i, out, p| {
            let (_, _, j0, nc0) = window(i);
            // Seed the window with the incoming C so the band blends the
            // real β exactly as the serial kernel does; with β = 0 the
            // first KC pass stores without reading, so the seed is
            // skipped.
            if beta != 0.0 {
                for (r, row) in out.chunks_exact_mut(nc0).enumerate() {
                    row.copy_from_slice(&c_in[r * n + j0..][..nc0]);
                }
            }
            band(i, out, nc0, p)
        });
        for (i, win) in stage.chunks(m * band_len).enumerate() {
            let (_, _, j0, nc0) = window(i);
            for (r, row) in win.chunks_exact(nc0).enumerate() {
                c[r * n + j0..][..nc0].copy_from_slice(row);
            }
        }
    });
}

/// Runs `band(i, out_i, panels_i)` for every output window of `outs`:
/// band 0 on the calling thread, the rest on scoped helper threads that
/// borrow their window and packing pair for the duration of the call.
fn fan_out_bands<'a, F>(
    outs: impl Iterator<Item = &'a mut [f32]>,
    panels: &mut [(Vec<f32>, Vec<f32>)],
    band: F,
) where
    F: Fn(usize, &mut [f32], &mut (Vec<f32>, Vec<f32>)) + Sync,
{
    std::thread::scope(|s| {
        let band = &band;
        let mut jobs = outs.zip(panels.iter_mut()).enumerate();
        let first = jobs.next();
        for (i, (out, p)) in jobs {
            s.spawn(move || band(i, out, p));
        }
        if let Some((i, (out, p))) = first {
            band(i, out, p);
        }
    });
}

// ---------------------------------------------------------------------------
// Retained naive baseline (the seed kernel) for in-repo A/B measurement.
// ---------------------------------------------------------------------------

/// The seed's row kernel: axpy/dot loops streaming strided operands
/// straight from memory.
#[allow(clippy::too_many_arguments)]
fn naive_rows(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    for (i, c_row) in c[..m * n].chunks_mut(n).enumerate() {
        naive_row(ta, tb, m, n, k, alpha, a, b, i, c_row);
    }
}

#[allow(clippy::too_many_arguments)]
fn naive_row(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    i: usize,
    c_row: &mut [f32],
) {
    match (ta, tb) {
        (Transpose::No, Transpose::No) => {
            // C[i,:] += α Σ_l A[i,l]·B[l,:]  (axpy over contiguous B rows)
            for l in 0..k {
                let ail = alpha * a[i * k + l];
                if ail != 0.0 {
                    let b_row = &b[l * n..l * n + n];
                    for (cj, bj) in c_row.iter_mut().zip(b_row) {
                        *cj += ail * bj;
                    }
                }
            }
        }
        (Transpose::No, Transpose::Yes) => {
            // C[i,j] += α·dot(A.row(i), B.row(j)); B stored n×k.
            let a_row = &a[i * k..i * k + k];
            for (j, cj) in c_row.iter_mut().enumerate() {
                let b_row = &b[j * k..j * k + k];
                *cj += alpha * crate::ops::dot(a_row, b_row);
            }
        }
        (Transpose::Yes, Transpose::No) => {
            // A stored k×m: C[i,j] += α Σ_l A[l,i]·B[l,j].
            for l in 0..k {
                let ali = alpha * a[l * m + i];
                if ali != 0.0 {
                    let b_row = &b[l * n..l * n + n];
                    for (cj, bj) in c_row.iter_mut().zip(b_row) {
                        *cj += ali * bj;
                    }
                }
            }
        }
        (Transpose::Yes, Transpose::Yes) => {
            // Rare; A stored k×m, B stored n×k.
            for (j, cj) in c_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[l * m + i] * b[j * k + l];
                }
                *cj += alpha * acc;
            }
        }
    }
}

/// The seed GEMM, frozen as the perf baseline: the naive row kernel run
/// serially. See [`gemm_naive_par`] for the seed's fork-join path.
///
/// # Panics
/// Panics if any buffer is smaller than its dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    apply_beta(c, beta);
    if k == 0 || alpha == 0.0 {
        return;
    }
    naive_rows(ta, tb, m, n, k, alpha, a, b, c);
}

/// The seed GEMM with its original spawn-per-call row parallelism
/// ([`par::par_rows`]) and its original `m·n ≥ 64·64 && m > 1` dispatch
/// threshold — the strongest honest multi-threaded baseline for the
/// kernel-trajectory benches.
///
/// # Panics
/// Panics if any buffer is smaller than its dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive_par(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * n];
    if m * n >= 64 * 64 && m > 1 {
        par::par_rows(c, n, |i, c_row| {
            apply_beta(c_row, beta);
            if k > 0 && alpha != 0.0 {
                naive_row(ta, tb, m, n, k, alpha, a, b, i, c_row);
            }
        });
    } else {
        apply_beta(c, beta);
        if k > 0 && alpha != 0.0 {
            naive_rows(ta, tb, m, n, k, alpha, a, b, c);
        }
    }
}

/// Convenience: `C = A·B` with fresh output.
pub fn matmul(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0; m * n];
    gemm(
        Transpose::No,
        Transpose::No,
        m,
        n,
        k,
        1.0,
        a,
        b,
        0.0,
        &mut c,
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: naive triple loop with explicit indexing.
    fn naive(
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let get_a = |i: usize, l: usize| match ta {
            Transpose::No => a[i * k + l],
            Transpose::Yes => a[l * m + i],
        };
        let get_b = |l: usize, j: usize| match tb {
            Transpose::No => b[l * n + j],
            Transpose::Yes => b[j * k + l],
        };
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += get_a(i, l) * get_b(l, j);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut r = crate::rng::Rng::new(seed);
        (0..n).map(|_| r.uniform_in(-1.0, 1.0)).collect()
    }

    fn assert_all_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tol * (1.0 + y.abs()),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn small_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let c = matmul(2, 2, 2, &[1., 2., 3., 4.], &[5., 6., 7., 8.]);
        assert_eq!(c, vec![19., 22., 43., 50.]);
    }

    #[test]
    fn all_transpose_variants_match_naive() {
        let (m, n, k) = (7, 9, 11);
        for (ta, a_len) in [(Transpose::No, m * k), (Transpose::Yes, k * m)] {
            for (tb, b_len) in [(Transpose::No, k * n), (Transpose::Yes, n * k)] {
                let a = rand_vec(a_len, 1);
                let b = rand_vec(b_len, 2);
                let mut c = vec![0.0; m * n];
                gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                assert_all_close(&c, &naive(ta, tb, m, n, k, &a, &b), 1e-4);
            }
        }
    }

    #[test]
    fn blocked_serial_matches_naive_across_tile_boundaries() {
        // Sizes straddling MR/NR (8), MC (64) and KC (256) edges.
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR, NR, 3),
            (MR + 1, NR - 1, KC + 3),
            (MC - 1, NR + 1, 5),
            (MC + 7, 2 * NR + 3, KC),
            (3, 130, KC + 1),
            (130, 3, 70),
            (65, 65, 65),
        ] {
            for (ta, a_len) in [(Transpose::No, m * k), (Transpose::Yes, k * m)] {
                for (tb, b_len) in [(Transpose::No, k * n), (Transpose::Yes, n * k)] {
                    let a = rand_vec(a_len, m as u64);
                    let b = rand_vec(b_len, n as u64 + 100);
                    let mut c = vec![0.0; m * n];
                    gemm_serial(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                    let r = naive(ta, tb, m, n, k, &a, &b);
                    assert_all_close(&c, &r, 1e-3);
                }
            }
        }
    }

    #[test]
    fn naive_baselines_match_reference() {
        let (m, n, k) = (65, 67, 33);
        let a = rand_vec(m * k, 21);
        let b = rand_vec(k * n, 22);
        let r = naive(Transpose::No, Transpose::No, m, n, k, &a, &b);
        let mut c1 = vec![0.0; m * n];
        gemm_naive(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c1,
        );
        assert_all_close(&c1, &r, 1e-3);
        let mut c2 = vec![0.0; m * n];
        gemm_naive_par(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c2,
        );
        assert_all_close(&c2, &r, 1e-3);
    }

    #[test]
    fn alpha_beta_blend() {
        let a = rand_vec(4 * 3, 3);
        let b = rand_vec(3 * 5, 4);
        let c0 = rand_vec(4 * 5, 5);
        let mut c = c0.clone();
        gemm(
            Transpose::No,
            Transpose::No,
            4,
            5,
            3,
            2.0,
            &a,
            &b,
            0.5,
            &mut c,
        );
        let p = naive(Transpose::No, Transpose::No, 4, 5, 3, &a, &b);
        for i in 0..c.len() {
            assert!((c[i] - (2.0 * p[i] + 0.5 * c0[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn alpha_beta_blend_on_blocked_path() {
        // Large enough to take the blocked path; β blends the old C in.
        let (m, n, k) = (70, 71, 72);
        let a = rand_vec(m * k, 31);
        let b = rand_vec(k * n, 32);
        let c0 = rand_vec(m * n, 33);
        let mut c = c0.clone();
        gemm_serial(
            Transpose::No,
            Transpose::Yes,
            m,
            n,
            k,
            -1.5,
            &a,
            &b,
            0.25,
            &mut c,
        );
        let p = naive(Transpose::No, Transpose::Yes, m, n, k, &a, &b);
        for i in 0..c.len() {
            let want = -1.5 * p[i] + 0.25 * c0[i];
            assert!(
                (c[i] - want).abs() < 1e-3 * (1.0 + want.abs()),
                "{i}: {} vs {want}",
                c[i]
            );
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn simd_microkernel_is_bit_identical_to_scalar_fallback() {
        // The whole blocked kernel (both nests, all packing paths) must
        // produce the same bits whether the explicit-SIMD tier or the
        // scalar fallback does the flops — the contract that makes the
        // scalar-build CI leg meaningful and tier choice unobservable.
        for &(m, n, k) in &[
            (70, 90, KC + 37),     // standard nest, ragged tiles
            (32, 300, 2 * KC + 9), // skinny nest, k spanning 3 KC blocks
            (257, 65, 300),        // multi-MC rows
        ] {
            for (ta, a_len) in [(Transpose::No, m * k), (Transpose::Yes, k * m)] {
                for (tb, b_len) in [(Transpose::No, k * n), (Transpose::Yes, n * k)] {
                    for beta in [0.0f32, 0.5, 1.0] {
                        let a = rand_vec(a_len, 7 * m as u64 + 1);
                        let b = rand_vec(b_len, 13 * n as u64 + 2);
                        let c0 = rand_vec(m * n, 17 * k as u64 + 3);
                        let mut c_fast = c0.clone();
                        gemm_serial(ta, tb, m, n, k, 1.25, &a, &b, beta, &mut c_fast);
                        let mut c_scalar = c0.clone();
                        crate::simd::with_scalar_kernels(|| {
                            gemm_serial(ta, tb, m, n, k, 1.25, &a, &b, beta, &mut c_scalar);
                        });
                        assert_eq!(
                            bits(&c_fast),
                            bits(&c_scalar),
                            "tier mismatch: m={m} n={n} k={k} ta={ta:?} tb={tb:?} beta={beta}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn skinny_nest_is_bit_identical_to_standard_nest() {
        // The vgg_fc6-cliff nest must be a pure reassociation-free
        // reordering: same bits as the standard nest (itself pinned to
        // the scalar fallback by the test above), for every transpose
        // combination and β path, including a shape crossing NC.
        for &(m, n, k) in &[
            (32, 300, 2 * KC + 5),
            (SKINNY_M, 97, KC + 1),
            (MR, 2 * NC + 33, KC + 300),
        ] {
            for (ta, a_len) in [(Transpose::No, m * k), (Transpose::Yes, k * m)] {
                for (tb, b_len) in [(Transpose::No, k * n), (Transpose::Yes, n * k)] {
                    for beta in [0.0f32, 0.5, 1.0] {
                        let a = rand_vec(a_len, 3 * m as u64 + 11);
                        let b = rand_vec(b_len, 5 * n as u64 + 12);
                        let c0 = rand_vec(m * n, 7 * k as u64 + 13);
                        let mut c_skinny = c0.clone();
                        gemm_serial(ta, tb, m, n, k, -0.75, &a, &b, beta, &mut c_skinny);
                        let mut c_std = c0.clone();
                        with_standard_nest(|| {
                            gemm_serial(ta, tb, m, n, k, -0.75, &a, &b, beta, &mut c_std);
                        });
                        assert_eq!(
                            bits(&c_skinny),
                            bits(&c_std),
                            "nest mismatch: m={m} n={n} k={k} ta={ta:?} tb={tb:?} beta={beta}"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn gemm_is_tier_and_nest_invariant_at_band_boundaries(
            mi in 0usize..3, ni in 0usize..3, ki in 0usize..2,
            dm in 0usize..3, dn in 0usize..3, dk in 0usize..3,
            bi in 0usize..3,
        ) {
            // Shapes perturbed ±1 around tile/block boundaries — the
            // off-by-one regime where packing pads and ragged corners
            // diverge first if any tier or nest mishandles them.
            let m = [MR, SKINNY_M, MC][mi] + dm - 1;
            let n = [NR, 4 * NR, NC][ni] + dn - 1;
            let k = [KC, 2 * KC][ki] + dk - 1;
            proptest::prop_assume!(m > 0 && n > 0 && k > 0);
            let beta = [0.0f32, 0.5, 1.0][bi];
            let a = rand_vec(m * k, (m * n) as u64);
            let b = rand_vec(k * n, (n + k) as u64);
            let c0 = rand_vec(m * n, (m + k) as u64);
            let mut c_fast = c0.clone();
            gemm_serial(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, beta, &mut c_fast);
            let mut c_ref = c0.clone();
            crate::simd::with_scalar_kernels(|| with_standard_nest(|| {
                gemm_serial(Transpose::No, Transpose::No, m, n, k, 1.0, &a, &b, beta, &mut c_ref);
            }));
            proptest::prop_assert_eq!(bits(&c_fast), bits(&c_ref));
        }
    }

    proptest::proptest! {
        #[test]
        fn packed_gemm_matches_rowstable_bitwise(
            m in 1usize..81, ni in 0usize..4, dn in 0usize..3,
            kb in 1usize..4, dk in 0usize..3,
            ai in 0usize..4, bi in 0usize..2, ti in 0usize..4,
        ) {
            // m crosses MR and SKINNY_M (multi-block row splits); n
            // crosses NR, one and two SKINNY_NC panels; k sits ±1 around
            // a KC multiple, at least as deep as the per-row packing
            // threshold needs (narrow n takes many KC blocks).
            let n = [NR, SKINNY_NC, 2 * SKINNY_NC, 500][ni] + dn - 1;
            let min_blocks = (SMALL_FLOPS as usize / 2).div_ceil(n) / KC + 1;
            let k = kb.max(min_blocks) * KC + dk - 1;
            let layout = PackedB::new(k, n);
            proptest::prop_assume!(layout.worth_packing());
            let alpha = [1.0f32, -0.75, 2.5, 0.0][ai];
            let beta = [0.0f32, 0.5][bi];
            let ta = [Transpose::No, Transpose::Yes][ti % 2];
            let tb = [Transpose::No, Transpose::Yes][ti / 2];
            let a = rand_vec(m * k, (m * k) as u64);
            let b = rand_vec(k * n, (n + 7 * k) as u64);
            let c0 = rand_vec(m * n, (m + n) as u64);
            let mut strips = vec![f32::NAN; layout.len()];
            layout.pack(tb, &b, &mut strips);
            let mut c_packed = c0.clone();
            gemm_packed(ta, m, alpha, &a, layout, &strips, beta, &mut c_packed);
            let mut c_ref = c0;
            gemm_rowstable(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c_ref);
            proptest::prop_assert_eq!(
                bits(&c_packed),
                bits(&c_ref),
                "m={} n={} k={} alpha={} beta={} ta={:?} tb={:?}",
                m, n, k, alpha, beta, ta, tb
            );
        }
    }

    #[test]
    fn packed_operand_is_sized_exactly() {
        // The served LeNet fc6 operand (Wᵀ, 800×500): 16 strips of 32
        // columns over the full depth — the weights plus the last tile's
        // 12 padding columns, nothing else.
        let layout = PackedB::new(800, 500);
        assert_eq!(layout.len(), 16 * NR * 800);
        assert!(layout.worth_packing());
        // fc8 (500→10) stays on the direct row loop.
        assert!(!PackedB::new(500, 10).worth_packing());
    }

    #[test]
    fn in_place_packing_matches_packing_from_a_copy() {
        // n on and around SKINNY_NC multiples (no tail panel, a one-tile
        // tail, a ragged tail) and k across KC blocks.
        for &(k, n) in &[
            (800, 500),
            (KC, SKINNY_NC),
            (KC + 1, 2 * SKINNY_NC + 1),
            (3 * KC - 7, SKINNY_NC - 5),
            (5, 2 * SKINNY_NC + NR),
            (0, 300),
        ] {
            let layout = PackedB::new(k, n);
            let w = rand_vec(k * n, (k + n) as u64);
            let mut want = vec![f32::NAN; layout.len()];
            layout.pack(Transpose::Yes, &w, &mut want);
            let mut got = vec![f32::NAN; layout.len()];
            got[..k * n].copy_from_slice(&w);
            layout.pack_in_place(&mut got);
            assert_eq!(bits(&got), bits(&want), "k={k} n={n}");
        }
    }

    #[test]
    fn warm_packed_gemm_reuses_the_pack_scratch() {
        let (m, k, n) = (8, 800, 500);
        let a = rand_vec(m * k, 4);
        let layout = PackedB::new(k, n);
        let mut strips = vec![0.0; layout.len()];
        layout.pack(Transpose::Yes, &rand_vec(k * n, 5), &mut strips);
        let mut c = vec![0.0; m * n];
        let capacity = || PACK_SCRATCH.with(|cell| cell.borrow().0.capacity());
        gemm_packed(Transpose::No, m, 1.0, &a, layout, &strips, 0.0, &mut c);
        let warm = capacity();
        for rows in [1, m, 3] {
            gemm_packed(Transpose::No, rows, 1.0, &a, layout, &strips, 0.0, &mut c);
        }
        assert_eq!(capacity(), warm, "a warm packed GEMM grew its scratch");
    }

    #[test]
    fn parallel_path_is_bit_identical_to_serial() {
        // Forced band splits regardless of host core count. Shapes cross
        // the KC boundary (k > 256) with β ≠ 0 — the case where a
        // pre-scale-then-add scheme would associate the β·C term
        // differently from the serial kernel — plus row- and column-split
        // bands with ragged last bands and a k = 0 degenerate.
        for threads in 1..=4 {
            for &(m, n, k) in &[
                (96, 96, 33),
                (257, 19, 130),
                (19, 257, 130),
                (257, 257, 257),
                (70, 300, KC + 9),
                (32, 600, 300), // skinny nest inside N-split bands
                (40, 40, 0),
            ] {
                let a = rand_vec(m * k, 6);
                let b = rand_vec(k * n, 7);
                let mut c_par = rand_vec(m * n, 8);
                let mut c_ser = c_par.clone();
                let (ta, tb) = (Transpose::No, Transpose::No);
                gemm_blocked_parallel(threads, ta, tb, m, n, k, 2.0, &a, &b, 0.5, &mut c_par);
                gemm_serial(ta, tb, m, n, k, 2.0, &a, &b, 0.5, &mut c_ser);
                assert_eq!(bits(&c_par), bits(&c_ser), "t={threads} m={m} n={n} k={k}");
            }
        }
    }

    #[test]
    fn borrowed_bands_match_serial_on_skinny_training_shapes() {
        // The wide MLP's hidden-layer GEMMs at batch 4 (forward with the
        // weight transposed and not, and the β = 1 weight gradient), a
        // column split narrower than threads·MR rows, and a row split
        // whose last band is ragged — each at 1–4 threads, bitwise
        // against the serial kernel.
        let cases: &[(Transpose, Transpose, usize, usize, usize, f32)] = &[
            (Transpose::No, Transpose::Yes, 4, 2048, 2048, 0.0),
            (Transpose::No, Transpose::No, 4, 2048, 2048, 0.0),
            (Transpose::Yes, Transpose::No, 2048, 2048, 4, 1.0),
            (Transpose::No, Transpose::Yes, 5, 300, 400, 0.5),
            (Transpose::Yes, Transpose::Yes, 203, 61, 97, 0.5),
        ];
        for &(ta, tb, m, n, k, beta) in cases {
            let a = rand_vec(m * k, 80);
            let b = rand_vec(k * n, 81);
            let c0 = rand_vec(m * n, 82);
            let mut want = c0.clone();
            gemm_serial(ta, tb, m, n, k, 1.0, &a, &b, beta, &mut want);
            for threads in 1..=4 {
                let mut got = c0.clone();
                gemm_blocked_parallel(threads, ta, tb, m, n, k, 1.0, &a, &b, beta, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{ta:?}/{tb:?} {m}x{n}x{k} beta={beta} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn only_memory_bound_calls_fan_out() {
        // The wide MLP's batch-4 GEMMs (forward, input gradient, β = 1
        // weight gradient) stream more bytes than they have flops to
        // hide; LeNet's batch-32 fc6 calls, a square 512³ and the
        // batch-32 vgg_fc6 layer do not.
        for (m, n, k) in [
            (4, 2048, 2048),
            (2048, 2048, 4),
            (4, 2048, 784),
            (2048, 784, 4),
        ] {
            assert!(memory_bound(m, n, k), "{m}x{n}x{k}");
        }
        for (m, n, k) in [
            (32, 500, 800),
            (500, 800, 32),
            (32, 800, 500),
            (512, 512, 512),
            (32, 4096, 25088),
        ] {
            assert!(!memory_bound(m, n, k), "{m}x{n}x{k}");
        }
    }

    #[test]
    fn compute_bound_gemm_runs_serially_on_every_call() {
        // A compute-bound call past PAR_FLOPS keeps to the calling
        // thread however often it repeats: no band is split off (the
        // band scratch never grows) and the bits are the serial ones.
        let (m, n, k) = (192, 192, 192);
        assert!(gemm_flops(m, n, k) >= PAR_FLOPS && !memory_bound(m, n, k));
        let a = rand_vec(m * k, 50);
        let b = rand_vec(k * n, 51);
        let mut want = rand_vec(m * n, 52);
        let mut c = want.clone();
        let (ta, tb) = (Transpose::No, Transpose::Yes);
        let before = band_scratch_floats();
        for _ in 0..10 {
            gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.5, &mut c);
            gemm_serial(ta, tb, m, n, k, 1.0, &a, &b, 0.5, &mut want);
            assert_eq!(bits(&c), bits(&want));
        }
        assert_eq!(
            band_scratch_floats(),
            before,
            "a compute-bound call fanned out"
        );
    }

    #[test]
    fn gemm_inside_a_pool_job_runs_serially_with_the_same_bits() {
        // A GEMM past PAR_FLOPS issued from a pool job (the conv
        // fan-out's per-sample calls) must not spawn band threads — the
        // enclosing fan-out owns the cores — and must keep the bits.
        let (m, n, k) = (4, 2048, 1024);
        assert!(gemm_flops(m, n, k) >= PAR_FLOPS);
        let a = std::sync::Arc::new(rand_vec(m * k, 90));
        let b = std::sync::Arc::new(rand_vec(k * n, 91));
        let mut want = vec![0.0; m * n];
        gemm_serial(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut want,
        );
        let pool = par::WorkerPool::new(1);
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let (a, b) = (a.clone(), b.clone());
                move || {
                    assert!(par::in_pool_job());
                    let mut c = vec![0.0; m * n];
                    let before = band_scratch_floats();
                    gemm(
                        Transpose::No,
                        Transpose::No,
                        m,
                        n,
                        k,
                        1.0,
                        &a,
                        &b,
                        0.0,
                        &mut c,
                    );
                    // The serial path never touches the band scratch.
                    (c, band_scratch_floats() - before)
                }
            })
            .collect();
        for (c, grown) in pool.run(jobs) {
            assert_eq!(bits(&c), bits(&want));
            assert_eq!(grown, 0, "a GEMM inside a pool job fanned out");
        }
        assert!(!par::in_pool_job(), "the submitter's job flag must reset");
    }

    #[test]
    fn rowstable_rows_are_invariant_to_row_count() {
        // Shapes on both sides of the per-row SMALL_FLOPS threshold, with
        // batch sizes that make `gemm`'s *total*-flops dispatch straddle
        // the naive/blocked split (the bug this entry exists to fix: the
        // lenet fc layers served at ragged batch sizes).
        for &(n, k) in &[(32, 288), (64, 700), (500, 800)] {
            let b = rand_vec(k * n, 21);
            let a_full = rand_vec(8 * k, 22);
            let mut c_full = vec![0.0; 8 * n];
            gemm_rowstable(
                Transpose::No,
                Transpose::Yes,
                8,
                n,
                k,
                1.0,
                &a_full,
                &b,
                0.0,
                &mut c_full,
            );
            for (start, rows) in [(0usize, 1usize), (3, 2), (7, 1), (2, 5)] {
                let mut c_sub = vec![0.0; rows * n];
                gemm_rowstable(
                    Transpose::No,
                    Transpose::Yes,
                    rows,
                    n,
                    k,
                    1.0,
                    &a_full[start * k..(start + rows) * k],
                    &b,
                    0.0,
                    &mut c_sub,
                );
                assert_eq!(
                    bits(&c_sub),
                    bits(&c_full[start * n..(start + rows) * n]),
                    "n={n} k={k} rows {start}..{}",
                    start + rows
                );
            }
        }
    }

    #[test]
    fn rowstable_matches_reference_product() {
        let (m, n, k) = (5, 40, 60);
        let a = rand_vec(m * k, 31);
        let b = rand_vec(k * n, 32);
        let mut c = vec![0.0; m * n];
        gemm_rowstable(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
        );
        let want = matmul(m, n, k, &a, &b);
        for (got, want) in c.iter().zip(&want) {
            assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
        }
    }

    #[test]
    fn parallel_path_is_bit_deterministic() {
        // Two runs over the same bands must agree bit-for-bit: every
        // output element is computed by exactly one band in a fixed loop
        // order, so scheduling cannot perturb float summation order.
        let (m, n, k) = (203, 111, 97);
        let a = rand_vec(m * k, 40);
        let b = rand_vec(k * n, 41);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        for c in [&mut c1, &mut c2] {
            gemm_blocked_parallel(
                4,
                Transpose::Yes,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                &a[..k * m],
                &b,
                0.0,
                c,
            );
        }
        assert_eq!(bits(&c1), bits(&c2));
    }

    #[test]
    fn warm_parallel_calls_grow_no_band_scratch() {
        // After one call per shape the band scratch (packing pairs and
        // column-split staging) is sized; repeating the calls must not
        // grow it — the parallel GEMM of a warm training step touches the
        // allocator zero times.
        let shapes = [(4, 2048, 300), (300, 200, 160), (160, 160, 160)];
        let run = || {
            for &(m, n, k) in &shapes {
                let a = vec![0.5; m * k];
                let b = vec![0.25; k * n];
                let mut c = vec![1.0; m * n];
                gemm_blocked_parallel(
                    3,
                    Transpose::No,
                    Transpose::No,
                    m,
                    n,
                    k,
                    1.0,
                    &a,
                    &b,
                    1.0,
                    &mut c,
                );
            }
        };
        run();
        let warm = band_scratch_floats();
        assert!(warm > 0);
        for _ in 0..3 {
            run();
            assert_eq!(
                band_scratch_floats(),
                warm,
                "a warm parallel GEMM grew its scratch"
            );
        }
    }

    #[test]
    fn flops_threshold_covers_degenerate_shapes() {
        // Tall-skinny m×1 (weight gradients) and wide 1×n — the shapes
        // the old m·n element threshold misjudged — stay correct through
        // whatever path the flop count picks.
        for &(m, n, k) in &[(4096, 1, 300), (1, 4096, 300)] {
            let a = rand_vec(m * k, 60);
            let b = rand_vec(k * n, 61);
            let mut c = vec![0.0; m * n];
            gemm(
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
            );
            assert_all_close(
                &c,
                &naive(Transpose::No, Transpose::No, m, n, k, &a, &b),
                1e-3,
            );
        }
    }

    #[test]
    fn pool_override_path_is_bit_identical_to_serial() {
        // A partition-group GEMM (dispatch under `par::with_pool`) must
        // produce exactly the serial result: a memory-bound call split
        // into as many bands as the group has threads, a compute-bound
        // one serially, and either serially in a one-thread group — which
        // splits off no band and leaves the zero-worker pool unspawned.
        // Shapes chosen above PAR_FLOPS so dispatch actually consults
        // the override.
        for (m, n, k) in [(4, 2048, 1024), (192, 192, 192)] {
            assert!(gemm_flops(m, n, k) >= PAR_FLOPS);
            let a = rand_vec(m * k, 70);
            let b = rand_vec(k * n, 71);
            let mut reference = vec![0.25; m * n];
            gemm_serial(
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.5,
                &mut reference,
            );
            for workers in [0usize, 3] {
                let group = std::sync::Arc::new(par::WorkerPool::new(workers));
                let mut c = vec![0.25; m * n];
                let before = band_scratch_floats();
                par::with_pool(&group, || {
                    gemm(
                        Transpose::No,
                        Transpose::No,
                        m,
                        n,
                        k,
                        1.0,
                        &a,
                        &b,
                        0.5,
                        &mut c,
                    );
                });
                assert_eq!(bits(&c), bits(&reference), "{m}x{n}x{k} workers={workers}");
                if workers == 0 {
                    assert_eq!(band_scratch_floats(), before, "{m}x{n}x{k} fanned out");
                }
                assert_eq!(group.threads_spawned(), workers);
            }
        }
    }

    #[test]
    fn zero_k_scales_c_only() {
        let mut c = vec![2.0; 4];
        gemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            0,
            1.0,
            &[],
            &[],
            0.5,
            &mut c,
        );
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    fn zero_m_or_n_is_noop() {
        let mut c: Vec<f32> = vec![];
        gemm(
            Transpose::No,
            Transpose::No,
            0,
            5,
            3,
            1.0,
            &[],
            &[0.0; 15],
            0.0,
            &mut c,
        );
        gemm(
            Transpose::No,
            Transpose::No,
            5,
            0,
            3,
            1.0,
            &[0.0; 15],
            &[],
            0.0,
            &mut c,
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_short_buffers() {
        let mut c = vec![0.0; 4];
        gemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            &[0.0; 3],
            &[0.0; 4],
            0.0,
            &mut c,
        );
    }
}

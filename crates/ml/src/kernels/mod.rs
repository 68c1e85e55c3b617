//! Runtime-dispatched SIMD kernels for inference and training.
//!
//! Every dense inner loop on the serving path — the MLP's hidden→hidden and
//! hidden→output GEMV rows, the SVM's match-count kernel evaluations, the
//! logreg one-hot gather-sum, and the quantized i8 variants — funnels
//! through this module. Training shares the same kernels (the MLP's forward
//! pass, the SVM match matrix) and adds the MLP's backward steps, the
//! elementwise [`axpy_f32`] and [`add_f32`] and the dense-layer
//! [`dense_backward_f32`], and SMO's partner search, [`argmax_gap_f64`].
//! The MLP's dense layers run a block of rows per call
//! ([`dense_forward_f32`], [`dense_backward_f32`]), each row with the
//! single-row kernels' bits.
//!
//! Dispatch is decided **once per process**: the first call probes the CPU
//! with `is_x86_feature_detected!` and caches a [`Backend`] in a
//! `OnceLock`, so the per-call cost is one predictable branch on an enum.
//!
//! Two tiers:
//!
//! - **AVX2** (`std::arch` intrinsics, 256-bit lanes, multi-accumulator) —
//!   the fast path on any post-2013 x86-64 server.
//! - **Scalar** — the bit-exact reference, and the tier of every host
//!   without AVX2 (an older x86-64 or a non-x86 one). Its accumulation
//!   order is the *definition* of every kernel's result: the AVX2 f32/f64
//!   kernels may re-associate sums (tolerance-tested, ≤1e-5 relative),
//!   while the integer kernels ([`dot_i8`], [`match_count_u32`]), the
//!   elementwise updates ([`axpy_f32`], [`add_f32`], [`dense_backward_f32`])
//!   and the partner search ([`argmax_gap_f64`]) are exact in both tiers
//!   and therefore backend-independent bit-for-bit.
//!
//! Setting the environment variable `HAMLET_FORCE_SCALAR` to `1` or `true`
//! before the first inference pins the process to the scalar tier; unset,
//! empty, `0` and `false` leave dispatch alone, and any other value panics
//! at first use (so a server refuses to start). CI runs the whole suite
//! both ways, and fleet operators can use it to rule the SIMD path in or
//! out when chasing a numeric discrepancy.

use std::sync::OnceLock;

/// The instruction-set tier selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// 256-bit AVX2 integer + float lanes.
    Avx2,
    /// Portable scalar reference — also the forced-override tier.
    Scalar,
}

impl Backend {
    /// Lowercase tag for telemetry (`/v1/stats`, `/metrics`) and logs.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Scalar => "scalar",
        }
    }
}

static BACKEND: OnceLock<Backend> = OnceLock::new();

/// The process-wide kernel backend (detected once, then cached).
#[inline]
pub fn backend() -> Backend {
    *BACKEND.get_or_init(|| detect(force_scalar_requested()))
}

/// Whether `HAMLET_FORCE_SCALAR` asks for the scalar tier. Panics on a
/// value [`parse_force_scalar`] rejects.
fn force_scalar_requested() -> bool {
    let value = std::env::var_os("HAMLET_FORCE_SCALAR");
    parse_force_scalar(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Parses a `HAMLET_FORCE_SCALAR` value (`None` = unset): unset, `""`,
/// `0` and `false` dispatch, `1` and `true` force scalar, and anything
/// else is an error naming the variable.
fn parse_force_scalar(value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("" | "0") => Ok(false),
        Some("1") => Ok(true),
        Some(s) if s.eq_ignore_ascii_case("true") => Ok(true),
        Some(s) if s.eq_ignore_ascii_case("false") => Ok(false),
        Some(s) => Err(format!(
            "HAMLET_FORCE_SCALAR must be 1, true, 0 or false, got {s:?}"
        )),
    }
}

/// Pure detection logic, split from the env read so tests can drive both
/// arms without mutating process environment.
fn detect(force_scalar: bool) -> Backend {
    if force_scalar {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    Backend::Scalar
}

// ---- dispatched kernels ----

/// Dense dot product with an explicit initial accumulator:
/// `init + Σ a[i]·b[i]`.
///
/// Threading the bias through `init` lets the scalar tier reproduce the
/// historical `z = b; z += w·a; …` accumulation order exactly, so forcing
/// scalar yields bit-identical logits to the pre-kernel implementation.
#[inline]
pub fn dot_f32(init: f32, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches this arm only after CPUID detection.
        Backend::Avx2 => unsafe { x86::dot_f32_avx2(init, a, b) },
        _ => scalar::dot_f32(init, a, b),
    }
}

/// A dense layer's forward products over `R` rows: `out[r][u] = bias[u] +
/// w[u]·x[r]` for every unit `u`, where `w[u]` is row `u` of the row-major
/// `bias.len() × x[r].len()` matrix `w`. Each product keeps [`dot_f32`]'s
/// accumulation partition for the tier, so `out[r][u]` is bit-for-bit
/// `dot_f32(bias[u], w[u], x[r])`, and one load of each weight feeds all
/// `R` rows: the MLP's row blocks stream `w2` once per block instead of
/// once per row. One dispatch covers the whole layer.
#[inline]
pub fn dense_forward_f32<const R: usize>(
    w: &[f32],
    bias: &[f32],
    x: [&[f32]; R],
    out: [&mut [f32]; R],
) {
    debug_assert!(x.iter().all(|x| x.len() * bias.len() == w.len()));
    debug_assert!(out.iter().all(|o| o.len() == bias.len()));
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches this arm only after CPUID detection.
        Backend::Avx2 => unsafe { x86::dense_forward_f32_avx2(w, bias, x, out) },
        _ => scalar::dense_forward_f32(w, bias, x, out),
    }
}

/// Exact integer dot product `Σ a[i]·b[i]` over i8 operands, accumulated in
/// i32. Addition of integers is associative, so every tier returns the same
/// bits — quantized-model predictions never depend on the backend.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches this arm only after CPUID detection.
        Backend::Avx2 => unsafe { x86::dot_i8_avx2(a, b) },
        _ => scalar::dot_i8(a, b),
    }
}

/// Number of positions where two u32 code rows agree — the one-hot kernel
/// trick's inner loop (SVM decision function and its training match
/// matrix). Exact in every tier.
#[inline]
pub fn match_count_u32(a: &[u32], b: &[u32]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches this arm only after CPUID detection.
        Backend::Avx2 => unsafe { x86::match_count_avx2(a, b) },
        _ => scalar::match_count_u32(a, b),
    }
}

/// SMO's second-choice partner search: the index `j ≠ skip` maximising
/// `|e − values[j]|`, the lowest such `j` on ties, and `usize::MAX` when no
/// candidate has a non-NaN gap (`values` empty, only `skip`, or every gap
/// NaN). Subtract, absolute value and the strict `>` compare round the same
/// way per element in every tier, and the SIMD lanes reduce as "largest
/// gap, lowest index", so every tier returns the sequential loop's `j`.
#[inline]
pub fn argmax_gap_f64(e: f64, values: &[f64], skip: usize) -> usize {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches this arm only after CPUID detection.
        Backend::Avx2 => unsafe { x86::argmax_gap_avx2(e, values, skip) },
        _ => scalar::argmax_gap_f64(e, values, skip),
    }
}

/// Elementwise ReLU `out[i] = max(z[i], 0.0)`. `max` against zero is exact,
/// so every tier agrees bit-for-bit.
#[inline]
pub fn relu_f32(z: &[f32], out: &mut [f32]) {
    debug_assert_eq!(z.len(), out.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches this arm only after CPUID detection.
        Backend::Avx2 => unsafe { x86::relu_f32_avx2(z, out) },
        _ => scalar::relu_f32(z, out),
    }
}

/// Elementwise `y[i] += a · x[i]`: a multiply, then an add (never a fused
/// multiply-add), so every tier rounds exactly like the scalar loop and
/// agrees bit-for-bit.
#[inline]
pub fn axpy_f32(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches this arm only after CPUID detection.
        Backend::Avx2 => unsafe { x86::axpy_f32_avx2(a, x, y) },
        _ => scalar::axpy_f32(a, x, y),
    }
}

/// A dense layer's backward step over `R` rows, skipping zero deltas: for
/// each unit `u` in order, and each row `r` in order whose `delta[r][u] ≠
/// 0`, `g[u] += delta[r][u]·x[r]` and `d[r] += delta[r][u]·w[u]`, where
/// `w[u]` and `g[u]` are row `u` of the row-major `delta[r].len() ×
/// x[r].len()` matrices. Each is [`axpy_f32`]'s multiply then add (never a
/// fused multiply-add) in the per-unit, per-row loop's order, so every tier
/// returns that loop's bits; a zero delta stays skipped because `0·inf` is
/// NaN. A unit live in every row updates its `g` row and every `d[r]` in
/// one pass, loading `w[u]` and `g[u]` once. One dispatch covers the whole
/// layer.
#[inline]
pub fn dense_backward_f32<const R: usize>(
    delta: [&[f32]; R],
    x: [&[f32]; R],
    w: &[f32],
    g: &mut [f32],
    d: [&mut [f32]; R],
) {
    debug_assert!(delta
        .iter()
        .zip(&x)
        .all(|(u, x)| u.len() * x.len() == w.len()));
    debug_assert!(d.iter().zip(&x).all(|(d, x)| d.len() == x.len()) && g.len() == w.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches this arm only after CPUID detection.
        Backend::Avx2 => unsafe { x86::dense_backward_f32_avx2(delta, x, w, g, d) },
        _ => scalar::dense_backward_f32(delta, x, w, g, d),
    }
}

/// Runs [`dense_backward_f32`] unit by unit over row-major `units × width`
/// matrices: `fused` takes a unit live in every row, `single` each live row
/// of any other unit, in row order. Shared by both tiers, so they skip
/// and order exactly alike.
#[inline(always)]
fn backward_units<const R: usize>(
    delta: [&[f32]; R],
    x: [&[f32]; R],
    w: &[f32],
    g: &mut [f32],
    mut d: [&mut [f32]; R],
    mut fused: impl FnMut([f32; R], [&[f32]; R], &[f32], &mut [f32], [&mut [f32]; R]),
    mut single: impl FnMut(f32, &[f32], &[f32], &mut [f32], &mut [f32]),
) {
    let units = delta.iter().map(|u| u.len()).min().unwrap_or(0);
    let width = w.len().checked_div(units).unwrap_or(0);
    for u in 0..units {
        let a: [f32; R] = std::array::from_fn(|r| delta[r][u]);
        let (w_u, g_u) = (
            &w[u * width..(u + 1) * width],
            &mut g[u * width..(u + 1) * width],
        );
        if a.iter().all(|&v| v != 0.0) {
            fused(a, x, w_u, g_u, d.each_mut().map(|d| &mut **d));
        } else {
            for r in 0..R {
                if a[r] != 0.0 {
                    single(a[r], x[r], w_u, g_u, d[r]);
                }
            }
        }
    }
}

/// Row `u` of the row-major matrix `w` with `units` rows.
#[inline(always)]
fn unit_row(w: &[f32], units: usize, u: usize) -> &[f32] {
    let width = w.len() / units;
    &w[u * width..(u + 1) * width]
}

/// Elementwise `y[i] += x[i]`. One rounding per element, so every tier
/// agrees bit-for-bit.
#[inline]
pub fn add_f32(x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches this arm only after CPUID detection.
        Backend::Avx2 => unsafe { x86::add_f32_avx2(x, y) },
        _ => scalar::add_f32(x, y),
    }
}

/// One-hot gather-sum `init + Σ weights[offsets[j] + codes[j]]` — the
/// entire logreg decision function. The gather is latency-bound, so SIMD
/// only engages past a width floor; below it the scalar reference runs (and
/// defines the result bit-for-bit — f64 addition over gathered values is
/// order-sensitive like any float sum).
#[inline]
pub fn onehot_dot_f64(init: f64, weights: &[f64], offsets: &[u32], codes: &[u32]) -> f64 {
    debug_assert_eq!(offsets.len(), codes.len());
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 && offsets.len() >= 16 {
        if let Some(z) =
            // Safety: guarded by the AVX2 runtime check above.
            unsafe { x86::onehot_dot_f64_avx2(init, weights, offsets, codes) }
        {
            return z;
        }
        // Indices out of range for the vector gather: fall through to the
        // scalar path, which bounds-checks (and panics) exactly like the
        // historical implementation.
    }
    scalar::onehot_dot_f64(init, weights, offsets, codes)
}

// ---- scalar reference tier ----

/// Bit-exact scalar reference implementations. Public so parity tests and
/// benches can pit them against the dispatched tier directly.
pub mod scalar {
    /// See [`super::dot_f32`]. Sequential left-to-right accumulation.
    #[inline]
    pub fn dot_f32(init: f32, a: &[f32], b: &[f32]) -> f32 {
        let mut z = init;
        for (x, y) in a.iter().zip(b) {
            z += x * y;
        }
        z
    }

    /// See [`super::dense_forward_f32`]. Each product's sequential loop.
    #[inline]
    pub fn dense_forward_f32<const R: usize>(
        w: &[f32],
        bias: &[f32],
        x: [&[f32]; R],
        mut out: [&mut [f32]; R],
    ) {
        for (u, &b) in bias.iter().enumerate() {
            let w_u = super::unit_row(w, bias.len(), u);
            for (out, x) in out.iter_mut().zip(x) {
                out[u] = dot_f32(b, w_u, x);
            }
        }
    }

    /// See [`super::dot_i8`].
    #[inline]
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let mut z = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            z += i32::from(x) * i32::from(y);
        }
        z
    }

    /// See [`super::match_count_u32`].
    #[inline]
    pub fn match_count_u32(a: &[u32], b: &[u32]) -> u32 {
        a.iter().zip(b).filter(|(x, y)| x == y).count() as u32
    }

    /// See [`super::argmax_gap_f64`]. The sequential reference loop.
    #[inline]
    pub fn argmax_gap_f64(e: f64, values: &[f64], skip: usize) -> usize {
        let mut best = (-1.0, usize::MAX);
        for (j, &v) in values.iter().enumerate() {
            if j != skip {
                best = gap_step(best, e, v, j);
            }
        }
        best.1
    }

    /// One step of the partner search: `(best gap, its index)` after
    /// candidate `j`. The AVX2 tier runs its scalar tails through it.
    #[inline]
    pub(super) fn gap_step(best: (f64, usize), e: f64, v: f64, j: usize) -> (f64, usize) {
        let gap = (e - v).abs();
        if gap > best.0 {
            (gap, j)
        } else {
            best
        }
    }

    /// See [`super::relu_f32`].
    #[inline]
    pub fn relu_f32(z: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(z) {
            *o = v.max(0.0);
        }
    }

    /// See [`super::axpy_f32`].
    #[inline]
    pub fn axpy_f32(a: f32, x: &[f32], y: &mut [f32]) {
        for (v, &xi) in y.iter_mut().zip(x) {
            *v += a * xi;
        }
    }

    /// See [`super::add_f32`].
    #[inline]
    pub fn add_f32(x: &[f32], y: &mut [f32]) {
        for (v, &xi) in y.iter_mut().zip(x) {
            *v += xi;
        }
    }

    /// See [`super::dense_backward_f32`]. Two [`axpy_f32`] calls per live
    /// row.
    #[inline]
    pub fn dense_backward_f32<const R: usize>(
        delta: [&[f32]; R],
        x: [&[f32]; R],
        w: &[f32],
        g: &mut [f32],
        d: [&mut [f32]; R],
    ) {
        super::backward_units(delta, x, w, g, d, axpy_rows, axpy_row);
    }

    /// One live row of a unit: `g += a·x`, then `d += a·w`.
    fn axpy_row(a: f32, x: &[f32], w: &[f32], g: &mut [f32], d: &mut [f32]) {
        axpy_f32(a, x, g);
        axpy_f32(a, w, d);
    }

    /// Every row of a unit live in all of them, in row order.
    fn axpy_rows<const R: usize>(
        a: [f32; R],
        x: [&[f32]; R],
        w: &[f32],
        g: &mut [f32],
        d: [&mut [f32]; R],
    ) {
        for ((a, x), d) in a.into_iter().zip(x).zip(d) {
            axpy_row(a, x, w, g, d);
        }
    }

    /// See [`super::onehot_dot_f64`].
    #[inline]
    pub fn onehot_dot_f64(init: f64, weights: &[f64], offsets: &[u32], codes: &[u32]) -> f64 {
        let mut z = init;
        for (&o, &c) in offsets.iter().zip(codes) {
            z += weights[(o + c) as usize];
        }
        z
    }
}

// ---- x86-64 AVX2 tier ----

/// AVX2 implementations. Public so parity tests can target the tier
/// directly (after their own feature detection) regardless of what the
/// process-wide dispatch selected.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use std::arch::x86_64::*;

    #[inline]
    unsafe fn hsum256_ps(v: __m256) -> f32 {
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        lanes.iter().sum()
    }

    #[inline]
    unsafe fn hsum256_epi32(v: __m256i) -> i32 {
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes.iter().sum()
    }

    /// AVX2 [`super::dot_f32`]: 4 × 8-lane accumulators (32 elements per
    /// iteration) to break the serial add dependency, horizontal sum at the
    /// end. Re-associates the sum, so results may differ from scalar within
    /// float tolerance.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f32_avx2(init: f32, a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 32 <= n {
            acc0 = _mm256_add_ps(
                acc0,
                _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i))),
            );
            acc1 = _mm256_add_ps(
                acc1,
                _mm256_mul_ps(
                    _mm256_loadu_ps(pa.add(i + 8)),
                    _mm256_loadu_ps(pb.add(i + 8)),
                ),
            );
            acc2 = _mm256_add_ps(
                acc2,
                _mm256_mul_ps(
                    _mm256_loadu_ps(pa.add(i + 16)),
                    _mm256_loadu_ps(pb.add(i + 16)),
                ),
            );
            acc3 = _mm256_add_ps(
                acc3,
                _mm256_mul_ps(
                    _mm256_loadu_ps(pa.add(i + 24)),
                    _mm256_loadu_ps(pb.add(i + 24)),
                ),
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_add_ps(
                acc0,
                _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i))),
            );
            i += 8;
        }
        let mut sum = hsum256_ps(_mm256_add_ps(
            _mm256_add_ps(acc0, acc1),
            _mm256_add_ps(acc2, acc3),
        ));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        init + sum
    }

    /// The shortest of `w` and every `x[r]`.
    fn common_len<const R: usize>(w: &[f32], x: &[&[f32]; R]) -> usize {
        x.iter().fold(w.len(), |n, x| n.min(x.len()))
    }

    /// AVX2 [`super::dense_forward_f32`], one unit at a time.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dense_forward_f32_avx2<const R: usize>(
        w: &[f32],
        bias: &[f32],
        x: [&[f32]; R],
        mut out: [&mut [f32]; R],
    ) {
        for (u, &b) in bias.iter().enumerate() {
            let z = dot_rows_avx2(b, super::unit_row(w, bias.len(), u), x);
            for (out, z) in out.iter_mut().zip(z) {
                out[u] = z;
            }
        }
    }

    /// One unit of [`dense_forward_f32_avx2`]: per row, the same 4 × 8-lane
    /// accumulators, reduction and scalar tail as [`dot_f32_avx2`]; each
    /// 8-lane load of `w` is multiplied into all `R` rows.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_rows_avx2<const R: usize>(init: f32, w: &[f32], x: [&[f32]; R]) -> [f32; R] {
        let n = common_len(w, &x);
        let (pw, px) = (w.as_ptr(), x.map(<[f32]>::as_ptr));
        let mut acc = [[_mm256_setzero_ps(); 4]; R];
        let mut i = 0;
        while i + 32 <= n {
            for k in 0..4 {
                let wv = _mm256_loadu_ps(pw.add(i + 8 * k));
                for (acc, p) in acc.iter_mut().zip(px) {
                    let prod = _mm256_mul_ps(wv, _mm256_loadu_ps(p.add(i + 8 * k)));
                    acc[k] = _mm256_add_ps(acc[k], prod);
                }
            }
            i += 32;
        }
        while i + 8 <= n {
            let wv = _mm256_loadu_ps(pw.add(i));
            for (acc, p) in acc.iter_mut().zip(px) {
                acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(wv, _mm256_loadu_ps(p.add(i))));
            }
            i += 8;
        }
        let mut out = [0f32; R];
        for ((o, [a0, a1, a2, a3]), x) in out.iter_mut().zip(acc).zip(x) {
            let mut sum = hsum256_ps(_mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)));
            for j in i..n {
                sum += w[j] * x[j];
            }
            *o = init + sum;
        }
        out
    }

    /// AVX2 [`super::dot_i8`]: 32 bytes per iteration, sign-extended to i16
    /// halves, `madd` pairs into i32 lanes. Exact (integer adds commute).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 32 <= n {
            let a_lo = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i) as *const __m128i));
            let b_lo = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
            let a_hi = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i + 16) as *const __m128i));
            let b_hi = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i + 16) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
            i += 32;
        }
        while i + 16 <= n {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(i) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let mut sum = hsum256_epi32(acc);
        while i < n {
            sum += i32::from(a[i]) * i32::from(b[i]);
            i += 1;
        }
        sum
    }

    /// AVX2 [`super::match_count_u32`]: 8-lane compare + movemask popcount.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn match_count_avx2(a: &[u32], b: &[u32]) -> u32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut count = 0u32;
        let mut i = 0;
        while i + 8 <= n {
            let eq = _mm256_cmpeq_epi32(
                _mm256_loadu_si256(pa.add(i) as *const __m256i),
                _mm256_loadu_si256(pb.add(i) as *const __m256i),
            );
            count += (_mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32).count_ones();
            i += 8;
        }
        while i < n {
            count += u32::from(a[i] == b[i]);
            i += 1;
        }
        count
    }

    /// `values` without the element at `skip`: the part before it and the
    /// part after it (which starts at index `skip + 1`).
    fn split_skip(values: &[f64], skip: usize) -> (&[f64], &[f64]) {
        if skip < values.len() {
            (&values[..skip], &values[skip + 1..])
        } else {
            (values, &[])
        }
    }

    /// Folds per-lane partner-search winners (`gaps[k]` at local index
    /// `idx[k]`, `usize::MAX` for a lane with no candidate) into `best`,
    /// whose index precedes every lane's: largest gap wins, lowest index on
    /// ties, so the result is the sequential loop's.
    fn reduce_gap_lanes(
        gaps: &[f64],
        idx: &[u64],
        base: usize,
        best: (f64, usize),
    ) -> (f64, usize) {
        let mut lanes = (-1.0, usize::MAX);
        for (&g, &k) in gaps.iter().zip(idx) {
            let k = k as usize;
            if g > lanes.0 || (g == lanes.0 && k < lanes.1) {
                lanes = (g, k);
            }
        }
        if lanes.0 > best.0 {
            (lanes.0, base + lanes.1)
        } else {
            best
        }
    }

    /// AVX2 [`super::argmax_gap_f64`]: the parts before and after `skip`
    /// each scan 8 f64 a step in two 4-lane accumulators (two, so the
    /// compare → blend chains overlap), every lane keeping its own best
    /// gap and index with a strict `>` compare and a blend.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn argmax_gap_avx2(e: f64, values: &[f64], skip: usize) -> usize {
        let (head, tail) = split_skip(values, skip);
        let best = gap_scan_avx2(e, head, 0, (-1.0, usize::MAX));
        gap_scan_avx2(e, tail, head.len() + 1, best).1
    }

    /// Continues the partner search from `best` over `v`, whose element
    /// `k` has index `base + k`. The loads stay inside `v`: a step reads
    /// `v[i..i + 8]` only while `i + 8 <= v.len()`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn gap_scan_avx2(e: f64, v: &[f64], base: usize, best: (f64, usize)) -> (f64, usize) {
        let n = v.len();
        let mut best = best;
        let mut i = 0;
        if n >= 8 {
            let (ve, sign) = (_mm256_set1_pd(e), _mm256_set1_pd(-0.0));
            let mut gap_best = [_mm256_set1_pd(-1.0); 2];
            let mut idx_best = [_mm256_set1_epi64x(-1); 2];
            let mut idx = [
                _mm256_setr_epi64x(0, 1, 2, 3),
                _mm256_setr_epi64x(4, 5, 6, 7),
            ];
            let step = _mm256_set1_epi64x(8);
            while i + 8 <= n {
                for k in 0..2 {
                    let x = _mm256_loadu_pd(v.as_ptr().add(i + 4 * k));
                    let gap = _mm256_andnot_pd(sign, _mm256_sub_pd(ve, x));
                    let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(gap, gap_best[k]);
                    gap_best[k] = _mm256_blendv_pd(gap_best[k], gap, gt);
                    idx_best[k] = _mm256_castpd_si256(_mm256_blendv_pd(
                        _mm256_castsi256_pd(idx_best[k]),
                        _mm256_castsi256_pd(idx[k]),
                        gt,
                    ));
                    idx[k] = _mm256_add_epi64(idx[k], step);
                }
                i += 8;
            }
            let (mut gaps, mut lanes) = ([0f64; 8], [0u64; 8]);
            for k in 0..2 {
                _mm256_storeu_pd(gaps.as_mut_ptr().add(4 * k), gap_best[k]);
                _mm256_storeu_si256(lanes.as_mut_ptr().add(4 * k) as *mut __m256i, idx_best[k]);
            }
            best = reduce_gap_lanes(&gaps, &lanes, base, best);
        }
        for (j, &x) in v.iter().enumerate().skip(i) {
            best = super::scalar::gap_step(best, e, x, base + j);
        }
        best
    }

    /// AVX2 [`super::relu_f32`]. `maxps(z, 0)` matches scalar `max(0.0)`
    /// bit-for-bit on every input (NaN → 0 both ways).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2; `out.len() >= z.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn relu_f32_avx2(z: &[f32], out: &mut [f32]) {
        let n = z.len().min(out.len());
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm256_max_ps(_mm256_loadu_ps(z.as_ptr().add(i)), zero),
            );
            i += 8;
        }
        while i < n {
            out[i] = z[i].max(0.0);
            i += 1;
        }
    }

    /// AVX2 [`super::axpy_f32`]: `vmulps` then `vaddps`, 8 lanes a step.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_f32_avx2(a: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let va = _mm256_set1_ps(a);
        let mut i = 0;
        while i + 8 <= n {
            let prod = _mm256_mul_ps(va, _mm256_loadu_ps(px.add(i)));
            _mm256_storeu_ps(py.add(i), _mm256_add_ps(_mm256_loadu_ps(py.add(i)), prod));
            i += 8;
        }
        while i < n {
            y[i] += a * x[i];
            i += 1;
        }
    }

    /// AVX2 [`super::dense_backward_f32`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dense_backward_f32_avx2<const R: usize>(
        delta: [&[f32]; R],
        x: [&[f32]; R],
        w: &[f32],
        g: &mut [f32],
        d: [&mut [f32]; R],
    ) {
        // Safety (both closures): AVX2 is the caller's guarantee.
        super::backward_units(
            delta,
            x,
            w,
            g,
            d,
            |a, x, w, g, d| unsafe { axpy_rows_avx2(a, x, w, g, d) },
            |a, x, w, g, d| unsafe { axpy_rows_avx2([a], [x], w, g, [d]) },
        );
    }

    /// One unit of [`dense_backward_f32_avx2`]: per 8 lanes, one load of
    /// `w` and of `g`, then each row's two `vmulps` + `vaddps` in row order.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn axpy_rows_avx2<const R: usize>(
        a: [f32; R],
        x: [&[f32]; R],
        w: &[f32],
        g: &mut [f32],
        mut d: [&mut [f32]; R],
    ) {
        let n = common_len(w, &x).min(g.len());
        let n = d.iter().fold(n, |n, d| n.min(d.len()));
        let (pw, pg) = (w.as_ptr(), g.as_mut_ptr());
        let px = x.map(<[f32]>::as_ptr);
        let pd = d.each_mut().map(|d| d.as_mut_ptr());
        let va = a.map(|a| _mm256_set1_ps(a));
        let mut i = 0;
        while i + 8 <= n {
            let wv = _mm256_loadu_ps(pw.add(i));
            let mut gv = _mm256_loadu_ps(pg.add(i));
            for r in 0..R {
                let gx = _mm256_mul_ps(va[r], _mm256_loadu_ps(px[r].add(i)));
                gv = _mm256_add_ps(gv, gx);
                let dw = _mm256_mul_ps(va[r], wv);
                _mm256_storeu_ps(
                    pd[r].add(i),
                    _mm256_add_ps(_mm256_loadu_ps(pd[r].add(i)), dw),
                );
            }
            _mm256_storeu_ps(pg.add(i), gv);
            i += 8;
        }
        for j in i..n {
            for r in 0..R {
                g[j] += a[r] * x[r][j];
                d[r][j] += a[r] * w[j];
            }
        }
    }

    /// AVX2 [`super::add_f32`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_f32_avx2(x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let sum = _mm256_add_ps(_mm256_loadu_ps(py.add(i)), _mm256_loadu_ps(px.add(i)));
            _mm256_storeu_ps(py.add(i), sum);
            i += 8;
        }
        while i < n {
            y[i] += x[i];
            i += 1;
        }
    }

    /// AVX2 [`super::onehot_dot_f64`]: a SIMD max-reduction proves every
    /// gathered index in range, then `vgatherdpd` pulls 4 doubles per step.
    /// Returns `None` when any index would be out of bounds (or the weight
    /// table is too large for i32 indices) so the caller can fall back to
    /// the bounds-checked scalar path.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn onehot_dot_f64_avx2(
        init: f64,
        weights: &[f64],
        offsets: &[u32],
        codes: &[u32],
    ) -> Option<f64> {
        let n = offsets.len().min(codes.len());
        if weights.len() > i32::MAX as usize {
            return None;
        }
        let (po, pc) = (offsets.as_ptr(), codes.as_ptr());
        // Pass 1: max index, vectorized (u32 add may wrap only if the data
        // is corrupt, in which case the max check still rejects the batch
        // unless it wraps below the bound — matching scalar, which would
        // also have indexed somewhere in-bounds after the same wrap).
        let mut vmax = _mm256_setzero_si256();
        let mut i = 0;
        let mut tail_max = 0u32;
        while i + 8 <= n {
            let idx = _mm256_add_epi32(
                _mm256_loadu_si256(po.add(i) as *const __m256i),
                _mm256_loadu_si256(pc.add(i) as *const __m256i),
            );
            vmax = _mm256_max_epu32(vmax, idx);
            i += 8;
        }
        while i < n {
            tail_max = tail_max.max(offsets[i].wrapping_add(codes[i]));
            i += 1;
        }
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, vmax);
        let max_idx = lanes.iter().copied().fold(tail_max, u32::max);
        if max_idx as usize >= weights.len() {
            return None;
        }
        // Pass 2: gather and sum.
        let base = weights.as_ptr();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let idx = _mm_add_epi32(
                _mm_loadu_si128(po.add(i) as *const __m128i),
                _mm_loadu_si128(pc.add(i) as *const __m128i),
            );
            acc = _mm256_add_pd(acc, _mm256_i32gather_pd::<8>(base, idx));
            i += 4;
        }
        let mut lanes = [0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut sum = init + lanes.iter().sum::<f64>();
        while i < n {
            sum += weights[(offsets[i] + codes[i]) as usize];
            i += 1;
        }
        Some(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn f32s(n: usize, seed: u64) -> Vec<f32> {
        let mut r = rng(seed);
        (0..n)
            .map(|_| (r.gen::<f64>() * 4.0 - 2.0) as f32)
            .collect()
    }

    fn i8s(n: usize, seed: u64) -> Vec<i8> {
        let mut r = rng(seed);
        (0..n).map(|_| r.gen_range(-127i32..=127) as i8).collect()
    }

    fn rel_close(a: f32, b: f32, tol: f32) -> bool {
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() <= tol * scale
    }

    #[test]
    fn forced_scalar_detection() {
        assert_eq!(detect(true), Backend::Scalar);
        // Unforced detection picks AVX2 exactly when the CPU has it, and
        // the scalar reference otherwise.
        let b = detect(false);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(b == Backend::Avx2, is_x86_feature_detected!("avx2"));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(b, Backend::Scalar);
    }

    #[test]
    fn force_scalar_values_parse_like_hamlet_full() {
        for off in [None, Some(""), Some("0"), Some("false"), Some("FALSE")] {
            assert_eq!(parse_force_scalar(off), Ok(false), "{off:?}");
        }
        for on in ["1", "true", "True"] {
            assert_eq!(parse_force_scalar(Some(on)), Ok(true), "{on:?}");
        }
        assert_eq!(
            parse_force_scalar(Some("yes")),
            Err(r#"HAMLET_FORCE_SCALAR must be 1, true, 0 or false, got "yes""#.to_string())
        );
    }

    #[test]
    fn backend_is_cached_and_named() {
        let b = backend();
        assert_eq!(backend(), b);
        assert!(["avx2", "scalar"].contains(&b.name()));
    }

    #[test]
    fn dot_f32_dispatched_matches_scalar_within_tolerance() {
        for n in [0usize, 1, 7, 8, 31, 32, 33, 256, 1000] {
            let a = f32s(n, 1 + n as u64);
            let b = f32s(n, 2 + n as u64);
            let want = scalar::dot_f32(0.5, &a, &b);
            let got = dot_f32(0.5, &a, &b);
            assert!(rel_close(want, got, 1e-5), "n={n}: {want} vs {got}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_x86_tier_matches_scalar() {
        if !is_x86_feature_detected!("avx2") {
            return; // Without AVX2 the host runs the scalar tier only.
        }
        for n in [0usize, 3, 16, 63, 64, 257] {
            let af = f32s(n, 10 + n as u64);
            let bf = f32s(n, 20 + n as u64);
            let want = scalar::dot_f32(-1.25, &af, &bf);
            // Safety: AVX2 verified above.
            let avx = unsafe { x86::dot_f32_avx2(-1.25, &af, &bf) };
            assert!(rel_close(want, avx, 1e-5), "avx2 n={n}");

            let ai = i8s(n, 30 + n as u64);
            let bi = i8s(n, 40 + n as u64);
            // Integer kernels are exact in every tier.
            let want_i = scalar::dot_i8(&ai, &bi);
            assert_eq!(unsafe { x86::dot_i8_avx2(&ai, &bi) }, want_i, "n={n}");

            let mut r = rng(50 + n as u64);
            let au: Vec<u32> = (0..n).map(|_| r.gen_range(0..4)).collect();
            let bu: Vec<u32> = (0..n).map(|_| r.gen_range(0..4)).collect();
            let want_m = scalar::match_count_u32(&au, &bu);
            assert_eq!(unsafe { x86::match_count_avx2(&au, &bu) }, want_m);

            // ReLU is exact in every tier, including NaN handling.
            let mut zs = f32s(n, 60 + n as u64);
            if n > 2 {
                zs[1] = f32::NAN;
                zs[2] = -0.0;
            }
            let mut want_r = vec![0f32; n];
            scalar::relu_f32(&zs, &mut want_r);
            let mut got = vec![7f32; n];
            unsafe { x86::relu_f32_avx2(&zs, &mut got) };
            assert_eq!(got, want_r, "avx2 relu n={n}");
        }
    }

    /// `n` values cycling through signed zeros, the one NaN payload
    /// `f32::NAN`, subnormals, infinities and ordinary numbers.
    fn edge_f32s(n: usize, seed: u64) -> Vec<f32> {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::from_bits(1),            // smallest subnormal
            -f32::from_bits(0x007f_ffff), // largest subnormal, negated
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut v = f32s(n, seed);
        for (i, x) in v.iter_mut().enumerate() {
            if i % 3 == 0 {
                *x = specials[(i / 3 + seed as usize) % specials.len()];
            }
        }
        v
    }

    /// Bit patterns, with every NaN folded to one: x86 returns the first
    /// operand's payload when both operands of an add are NaN, and the
    /// compiler may commute the scalar loop's `y + a·x`, so NaN payloads
    /// are not a property of the kernel.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// A kernel tier a parity test can pin, whatever dispatch selected.
    #[derive(Debug, Clone, Copy)]
    enum Tier {
        Dispatched,
        Scalar,
        #[cfg(target_arch = "x86_64")]
        Avx2,
    }

    /// Every tier this host can run.
    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Dispatched, Tier::Scalar];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            tiers.push(Tier::Avx2);
        }
        tiers
    }

    // Safety (every `unsafe` block in the helpers below): `tiers()` lists
    // the AVX2 tier only after its feature check.

    fn dot_in(t: Tier, init: f32, a: &[f32], b: &[f32]) -> f32 {
        match t {
            Tier::Dispatched => dot_f32(init, a, b),
            Tier::Scalar => scalar::dot_f32(init, a, b),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { x86::dot_f32_avx2(init, a, b) },
        }
    }

    fn dense_forward_in<const R: usize>(
        t: Tier,
        w: &[f32],
        bias: &[f32],
        x: [&[f32]; R],
        out: [&mut [f32]; R],
    ) {
        match t {
            Tier::Dispatched => dense_forward_f32(w, bias, x, out),
            Tier::Scalar => scalar::dense_forward_f32(w, bias, x, out),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { x86::dense_forward_f32_avx2(w, bias, x, out) },
        }
    }

    fn axpy_in(t: Tier, a: f32, x: &[f32], y: &mut [f32]) {
        match t {
            Tier::Dispatched => axpy_f32(a, x, y),
            Tier::Scalar => scalar::axpy_f32(a, x, y),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { x86::axpy_f32_avx2(a, x, y) },
        }
    }

    fn add_in(t: Tier, x: &[f32], y: &mut [f32]) {
        match t {
            Tier::Dispatched => add_f32(x, y),
            Tier::Scalar => scalar::add_f32(x, y),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { x86::add_f32_avx2(x, y) },
        }
    }

    fn argmax_gap_in(t: Tier, e: f64, values: &[f64], skip: usize) -> usize {
        match t {
            Tier::Dispatched => argmax_gap_f64(e, values, skip),
            Tier::Scalar => scalar::argmax_gap_f64(e, values, skip),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { x86::argmax_gap_avx2(e, values, skip) },
        }
    }

    fn dense_backward_in<const R: usize>(
        t: Tier,
        delta: [&[f32]; R],
        x: [&[f32]; R],
        w: &[f32],
        g: &mut [f32],
        d: [&mut [f32]; R],
    ) {
        match t {
            Tier::Dispatched => dense_backward_f32(delta, x, w, g, d),
            Tier::Scalar => scalar::dense_backward_f32(delta, x, w, g, d),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { x86::dense_backward_f32_avx2(delta, x, w, g, d) },
        }
    }

    #[test]
    fn axpy_and_add_match_the_scalar_loop_bitwise_in_every_tier() {
        let scales = [1.5f32, -0.0, 0.0, f32::NAN, f32::from_bits(3), 1e30];
        for n in 0..=17usize {
            let x = edge_f32s(n, n as u64);
            let y0 = edge_f32s(n, 100 + n as u64);
            for t in tiers() {
                for &a in &scales {
                    let mut want = y0.clone();
                    for (v, &xi) in want.iter_mut().zip(&x) {
                        *v += a * xi;
                    }
                    let mut got = y0.clone();
                    axpy_in(t, a, &x, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{t:?} axpy a={a} n={n}");
                }
                let mut want = y0.clone();
                for (v, &xi) in want.iter_mut().zip(&x) {
                    *v += xi;
                }
                let mut got = y0.clone();
                add_in(t, &x, &mut got);
                assert_eq!(bits(&got), bits(&want), "{t:?} add n={n}");
            }
        }
    }

    /// `values` with every non-finite element replaced by 1.0.
    fn finite(mut values: Vec<f32>) -> Vec<f32> {
        for v in &mut values {
            if !v.is_finite() {
                *v = 1.0;
            }
        }
        values
    }

    /// Mutable views of `rows`, as an array.
    fn rows_mut<const R: usize>(rows: &mut [Vec<f32>]) -> [&mut [f32]; R] {
        let mut rows = rows.iter_mut();
        std::array::from_fn(|_| &mut rows.next().expect("R rows")[..])
    }

    /// Checks tier `t`'s dense-layer kernels over `R` rows of width `n`
    /// against per-unit, per-row [`dot_f32`]/[`axpy_f32`] calls of the same
    /// tier, bit for bit.
    fn check_dense<const R: usize>(t: Tier, n: usize) {
        let seed = 1000 * R as u64 + n as u64;
        let inputs: [fn(usize, u64) -> Vec<f32>; 3] =
            [f32s, edge_f32s, |n, seed| finite(edge_f32s(n, seed))];
        // Deltas cycle through zeros of both signs, NaN, a subnormal and
        // ordinary values, so units are live in every row, some rows or
        // none.
        let scales = [1.5f32, -0.0, 0.0, f32::NAN, f32::from_bits(3), 1e30, -2.25];
        let units = scales.len();
        for make in inputs {
            let w = make(units * n, seed);
            let xs: Vec<Vec<f32>> = (0..R).map(|r| make(n, seed + 7 * r as u64 + 1)).collect();
            let x: [&[f32]; R] = std::array::from_fn(|r| &xs[r][..]);

            let bias = make(units, seed + 50);
            let mut out = vec![vec![0f32; units]; R];
            dense_forward_in(t, &w, &bias, x, rows_mut(&mut out));
            for (r, out) in out.iter().enumerate() {
                for u in 0..units {
                    let want = dot_in(t, bias[u], &w[u * n..(u + 1) * n], x[r]);
                    assert_eq!(bits(&[out[u]]), bits(&[want]), "{t:?} forward R={R} n={n}");
                }
            }

            let deltas: Vec<Vec<f32>> = (0..R)
                .map(|r| {
                    (0..units)
                        .map(|u| scales[(u * (r + 1) + r) % units])
                        .collect()
                })
                .collect();
            let delta: [&[f32]; R] = std::array::from_fn(|r| &deltas[r][..]);
            let g0 = make(units * n, seed + 100);
            let d0: Vec<Vec<f32>> = (0..R).map(|r| make(n, seed + 200 + r as u64)).collect();
            let (mut g, mut d) = (g0.clone(), d0.clone());
            dense_backward_in(t, delta, x, &w, &mut g, rows_mut(&mut d));
            let (mut want_g, mut want_d) = (g0, d0);
            for u in 0..units {
                for r in 0..R {
                    let a = delta[r][u];
                    if a != 0.0 {
                        axpy_in(t, a, x[r], &mut want_g[u * n..(u + 1) * n]);
                        axpy_in(t, a, &w[u * n..(u + 1) * n], &mut want_d[r]);
                    }
                }
            }
            assert_eq!(bits(&g), bits(&want_g), "{t:?} backward g R={R} n={n}");
            for r in 0..R {
                assert_eq!(
                    bits(&d[r]),
                    bits(&want_d[r]),
                    "{t:?} backward d[{r}] R={R} n={n}"
                );
            }
        }
    }

    #[test]
    fn dense_kernels_match_per_row_kernels_bitwise_in_every_tier() {
        let mut lens: Vec<usize> = (0..=17).collect();
        lens.extend([31, 32, 33, 64, 256]);
        for t in tiers() {
            for &n in &lens {
                check_dense::<1>(t, n);
                check_dense::<2>(t, n);
                check_dense::<3>(t, n);
            }
        }
    }

    /// SMO's sequential second-choice loop, as it stood before the kernel.
    fn sequential_partner(e: f64, values: &[f64], skip: usize) -> usize {
        let mut best_j = usize::MAX;
        let mut best_gap = -1.0;
        for (cand, &v) in values.iter().enumerate() {
            if cand == skip {
                continue;
            }
            let gap = (e - v).abs();
            if gap > best_gap {
                best_gap = gap;
                best_j = cand;
            }
        }
        best_j
    }

    #[test]
    fn argmax_gap_matches_the_sequential_loop_in_every_tier() {
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0];
        let mut r = rng(77);
        let mut lens: Vec<usize> = (0..=17).collect();
        lens.extend([31, 32, 33, 64, 100]);
        for n in lens {
            // Values from a 4-element set tie inside a lane, across lanes
            // and between the vector body and the tail; the special cycle
            // puts signed zeros, NaN and infinities in every lane.
            let ties: Vec<f64> = (0..n).map(|_| f64::from(r.gen_range(-1i32..3))).collect();
            let edge: Vec<f64> = (0..n).map(|k| specials[k % specials.len()]).collect();
            let mixed: Vec<f64> = (0..n)
                .map(|k| {
                    if k % 3 == 0 {
                        specials[(k / 3) % specials.len()]
                    } else {
                        r.gen::<f64>() * 4.0 - 2.0
                    }
                })
                .collect();
            let flat = vec![0.25; n];
            for values in [&ties, &edge, &mixed, &flat] {
                for skip in 0..=n + 1 {
                    let mut es = vec![0.0, -0.0, 0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                    es.extend(values.get(skip));
                    for e in es {
                        let want = sequential_partner(e, values, skip);
                        for t in tiers() {
                            assert_eq!(
                                argmax_gap_in(t, e, values, skip),
                                want,
                                "{t:?} n={n} skip={skip} e={e} values={values:?}"
                            );
                        }
                    }
                }
            }
            // An all-equal cache returns the first index that is not `skip`.
            for skip in 0..n {
                let first = usize::from(skip == 0);
                for t in tiers() {
                    let got = argmax_gap_in(t, 0.25, &flat, skip);
                    let want = if first < n { first } else { usize::MAX };
                    assert_eq!(got, want, "{t:?} all-equal n={n} skip={skip}");
                }
            }
        }
    }

    #[test]
    fn dot_i8_and_match_count_are_backend_independent() {
        for n in [0usize, 5, 16, 48, 500] {
            let a = i8s(n, 7);
            let b = i8s(n, 8);
            assert_eq!(dot_i8(&a, &b), scalar::dot_i8(&a, &b));
            let mut r = rng(9);
            let au: Vec<u32> = (0..n).map(|_| r.gen_range(0..3)).collect();
            let bu: Vec<u32> = (0..n).map(|_| r.gen_range(0..3)).collect();
            assert_eq!(match_count_u32(&au, &bu), scalar::match_count_u32(&au, &bu));
        }
    }

    #[test]
    fn onehot_dot_matches_scalar() {
        let mut r = rng(123);
        for n in [1usize, 4, 15, 16, 17, 64, 200] {
            let card = 5u32;
            let offsets: Vec<u32> = (0..n as u32).map(|j| j * card).collect();
            let codes: Vec<u32> = (0..n).map(|_| r.gen_range(0..card)).collect();
            let weights: Vec<f64> = (0..n * card as usize)
                .map(|_| r.gen::<f64>() * 2.0 - 1.0)
                .collect();
            let want = scalar::onehot_dot_f64(0.125, &weights, &offsets, &codes);
            let got = onehot_dot_f64(0.125, &weights, &offsets, &codes);
            assert!(
                (want - got).abs() <= 1e-9 * want.abs().max(1.0),
                "n={n}: {want} vs {got}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn onehot_gather_rejects_out_of_bounds_indices() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let offsets: Vec<u32> = (0..32).map(|j| j * 2).collect();
        let codes = vec![1u32; 32];
        let weights = vec![1.0f64; 8]; // far too small
                                       // Safety: AVX2 verified above.
        assert!(unsafe { x86::onehot_dot_f64_avx2(0.0, &weights, &offsets, &codes) }.is_none());
    }
}

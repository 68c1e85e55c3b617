//! Runtime-dispatched SIMD kernels for inference and training.
//!
//! Every dense inner loop on the serving path — the MLP's hidden→hidden and
//! hidden→output GEMV rows, the SVM's match-count kernel evaluations, the
//! logreg one-hot gather-sum, and the quantized i8 variants — funnels
//! through this module. Training shares the same kernels (the MLP's forward
//! pass, the SVM match matrix) and adds two elementwise updates for the
//! MLP's backward pass, [`axpy_f32`] and [`add_f32`], and SMO's partner
//! search, [`argmax_gap_f64`].
//!
//! Dispatch is decided **once per process**: the first call probes the CPU
//! with `is_x86_feature_detected!` and caches a [`Backend`] in a
//! `OnceLock`, so the per-call cost is one predictable branch on an enum.
//!
//! Three tiers:
//!
//! - **AVX2** (`std::arch` intrinsics, 256-bit lanes, multi-accumulator) —
//!   the fast path on any post-2013 x86-64 server.
//! - **SSE2** (128-bit lanes) — baseline x86-64; always present there, kept
//!   as an explicit tier so the AVX2 code has a structurally identical,
//!   independently testable sibling.
//! - **Scalar** — the bit-exact reference. Its accumulation order is the
//!   *definition* of every kernel's result: the f32/f64 SIMD tiers may
//!   re-associate sums (tolerance-tested, ≤1e-5 relative), while the
//!   integer kernels ([`dot_i8`], [`match_count_u32`]), the elementwise
//!   updates ([`axpy_f32`], [`add_f32`]) and the partner search
//!   ([`argmax_gap_f64`]) are exact in every tier and therefore
//!   backend-independent bit-for-bit.
//!
//! Setting the environment variable `HAMLET_FORCE_SCALAR` (to anything but
//! `""` or `"0"`) before the first inference pins the process to the scalar
//! tier — CI runs the whole suite both ways, and fleet operators can use it
//! to rule the SIMD path in or out when chasing a numeric discrepancy.

use std::sync::OnceLock;

/// The instruction-set tier selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// 256-bit AVX2 integer + float lanes.
    Avx2,
    /// 128-bit SSE2 lanes (x86-64 baseline).
    Sse2,
    /// Portable scalar reference — also the forced-override tier.
    Scalar,
}

impl Backend {
    /// Lowercase tag for telemetry (`/v1/stats`, `/metrics`) and logs.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Sse2 => "sse2",
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

/// Whether `HAMLET_FORCE_SCALAR` asks for the scalar tier.
fn force_scalar_requested() -> bool {
    std::env::var_os("HAMLET_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0")
}

/// Pure detection logic, split from the env read so tests can drive both
/// arms without mutating process environment.
fn detect(force_scalar: bool) -> Backend {
    if force_scalar {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
        if is_x86_feature_detected!("sse2") {
            return Backend::Sse2;
        }
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
        // Safety: dispatch reaches these arms only after CPUID detection.
        Backend::Avx2 => unsafe { x86::dot_f32_avx2(init, a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::dot_f32_sse2(init, a, b) },
        _ => scalar::dot_f32(init, a, b),
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
        // Safety: dispatch reaches these arms only after CPUID detection.
        Backend::Avx2 => unsafe { x86::dot_i8_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::dot_i8_sse2(a, b) },
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
        // Safety: dispatch reaches these arms only after CPUID detection.
        Backend::Avx2 => unsafe { x86::match_count_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::match_count_sse2(a, b) },
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
        // Safety: dispatch reaches these arms only after CPUID detection.
        Backend::Avx2 => unsafe { x86::argmax_gap_avx2(e, values, skip) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::argmax_gap_sse2(e, values, skip) },
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
        // Safety: dispatch reaches these arms only after CPUID detection.
        Backend::Avx2 => unsafe { x86::relu_f32_avx2(z, out) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::relu_f32_sse2(z, out) },
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
        // Safety: dispatch reaches these arms only after CPUID detection.
        Backend::Avx2 => unsafe { x86::axpy_f32_avx2(a, x, y) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::axpy_f32_sse2(a, x, y) },
        _ => scalar::axpy_f32(a, x, y),
    }
}

/// Elementwise `y[i] += x[i]`. One rounding per element, so every tier
/// agrees bit-for-bit.
#[inline]
pub fn add_f32(x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // Safety: dispatch reaches these arms only after CPUID detection.
        Backend::Avx2 => unsafe { x86::add_f32_avx2(x, y) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::add_f32_sse2(x, y) },
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
    /// candidate `j`. The SIMD tiers run their scalar tails through it.
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

// ---- x86-64 SIMD tiers ----

/// AVX2 / SSE2 implementations. Public so parity tests can target a tier
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
    unsafe fn hsum128_ps(v: __m128) -> f32 {
        let mut lanes = [0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), v);
        lanes.iter().sum()
    }

    #[inline]
    unsafe fn hsum256_epi32(v: __m256i) -> i32 {
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes.iter().sum()
    }

    #[inline]
    unsafe fn hsum128_epi32(v: __m128i) -> i32 {
        let mut lanes = [0i32; 4];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, v);
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

    /// SSE2 [`super::dot_f32`]: 2 × 4-lane accumulators.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2 (x86-64 baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn dot_f32_sse2(init: f32, a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm_setzero_ps();
        let mut acc1 = _mm_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            acc0 = _mm_add_ps(
                acc0,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i)), _mm_loadu_ps(pb.add(i))),
            );
            acc1 = _mm_add_ps(
                acc1,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i + 4)), _mm_loadu_ps(pb.add(i + 4))),
            );
            i += 8;
        }
        let mut sum = hsum128_ps(_mm_add_ps(acc0, acc1));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        init + sum
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

    /// SSE2 [`super::dot_i8`]: sign-extension via the unpack-high +
    /// arithmetic-shift trick (no `pmovsxbw` before SSE4.1), then `pmaddwd`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2 (x86-64 baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn dot_i8_sse2(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm_setzero_si128();
        let zero = _mm_setzero_si128();
        let mut i = 0;
        while i + 16 <= n {
            let va = _mm_loadu_si128(pa.add(i) as *const __m128i);
            let vb = _mm_loadu_si128(pb.add(i) as *const __m128i);
            // Bytes land in the high half of each i16 lane; >>8 arithmetic
            // sign-extends them back down.
            let a_lo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, va), 8);
            let b_lo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, vb), 8);
            let a_hi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, va), 8);
            let b_hi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, vb), 8);
            acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
            i += 16;
        }
        let mut sum = hsum128_epi32(acc);
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

    /// SSE2 [`super::match_count_u32`]: 4-lane compare + movemask popcount.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2 (x86-64 baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn match_count_sse2(a: &[u32], b: &[u32]) -> u32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut count = 0u32;
        let mut i = 0;
        while i + 4 <= n {
            let eq = _mm_cmpeq_epi32(
                _mm_loadu_si128(pa.add(i) as *const __m128i),
                _mm_loadu_si128(pb.add(i) as *const __m128i),
            );
            count += (_mm_movemask_ps(_mm_castsi128_ps(eq)) as u32).count_ones();
            i += 4;
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

    /// SSE2 [`super::argmax_gap_f64`]: 2 f64 lanes a step, the blend done
    /// with and/andnot/or.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2 (x86-64 baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn argmax_gap_sse2(e: f64, values: &[f64], skip: usize) -> usize {
        let (head, tail) = split_skip(values, skip);
        let best = gap_scan_sse2(e, head, 0, (-1.0, usize::MAX));
        gap_scan_sse2(e, tail, head.len() + 1, best).1
    }

    /// SSE2 sibling of `gap_scan_avx2`, 2 elements a step.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2 (x86-64 baseline).
    #[target_feature(enable = "sse2")]
    unsafe fn gap_scan_sse2(e: f64, v: &[f64], base: usize, best: (f64, usize)) -> (f64, usize) {
        let n = v.len();
        let mut best = best;
        let mut i = 0;
        if n >= 2 {
            let (ve, sign) = (_mm_set1_pd(e), _mm_set1_pd(-0.0));
            let mut gap_best = _mm_set1_pd(-1.0);
            let mut idx_best = _mm_set1_epi64x(-1);
            let mut idx = _mm_set_epi64x(1, 0);
            let step = _mm_set1_epi64x(2);
            while i + 2 <= n {
                let gap = _mm_andnot_pd(sign, _mm_sub_pd(ve, _mm_loadu_pd(v.as_ptr().add(i))));
                let gt = _mm_cmpgt_pd(gap, gap_best);
                gap_best = _mm_or_pd(_mm_and_pd(gt, gap), _mm_andnot_pd(gt, gap_best));
                let gt = _mm_castpd_si128(gt);
                idx_best = _mm_or_si128(_mm_and_si128(gt, idx), _mm_andnot_si128(gt, idx_best));
                idx = _mm_add_epi64(idx, step);
                i += 2;
            }
            let (mut gaps, mut lanes) = ([0f64; 2], [0u64; 2]);
            _mm_storeu_pd(gaps.as_mut_ptr(), gap_best);
            _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, idx_best);
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

    /// SSE2 [`super::relu_f32`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2 (x86-64 baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn relu_f32_sse2(z: &[f32], out: &mut [f32]) {
        let n = z.len().min(out.len());
        let zero = _mm_setzero_ps();
        let mut i = 0;
        while i + 4 <= n {
            _mm_storeu_ps(
                out.as_mut_ptr().add(i),
                _mm_max_ps(_mm_loadu_ps(z.as_ptr().add(i)), zero),
            );
            i += 4;
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

    /// SSE2 [`super::axpy_f32`]: `mulps` then `addps`, 4 lanes a step.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2 (x86-64 baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn axpy_f32_sse2(a: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let va = _mm_set1_ps(a);
        let mut i = 0;
        while i + 4 <= n {
            let prod = _mm_mul_ps(va, _mm_loadu_ps(px.add(i)));
            _mm_storeu_ps(py.add(i), _mm_add_ps(_mm_loadu_ps(py.add(i)), prod));
            i += 4;
        }
        while i < n {
            y[i] += a * x[i];
            i += 1;
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

    /// SSE2 [`super::add_f32`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2 (x86-64 baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn add_f32_sse2(x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0;
        while i + 4 <= n {
            let sum = _mm_add_ps(_mm_loadu_ps(py.add(i)), _mm_loadu_ps(px.add(i)));
            _mm_storeu_ps(py.add(i), sum);
            i += 4;
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
        // Unforced detection picks *some* tier, and on x86-64 never scalar
        // (SSE2 is baseline).
        let b = detect(false);
        #[cfg(target_arch = "x86_64")]
        assert_ne!(b, Backend::Scalar);
        let _ = b.name();
    }

    #[test]
    fn backend_is_cached_and_named() {
        let b = backend();
        assert_eq!(backend(), b);
        assert!(["avx2", "sse2", "scalar"].contains(&b.name()));
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
            return; // SSE2-only host: the dispatch test already covers it.
        }
        for n in [0usize, 3, 16, 63, 64, 257] {
            let af = f32s(n, 10 + n as u64);
            let bf = f32s(n, 20 + n as u64);
            let want = scalar::dot_f32(-1.25, &af, &bf);
            // Safety: AVX2 (and baseline SSE2) verified above.
            let avx = unsafe { x86::dot_f32_avx2(-1.25, &af, &bf) };
            let sse = unsafe { x86::dot_f32_sse2(-1.25, &af, &bf) };
            assert!(rel_close(want, avx, 1e-5), "avx2 n={n}");
            assert!(rel_close(want, sse, 1e-5), "sse2 n={n}");

            let ai = i8s(n, 30 + n as u64);
            let bi = i8s(n, 40 + n as u64);
            // Integer kernels are exact in every tier.
            let want_i = scalar::dot_i8(&ai, &bi);
            assert_eq!(unsafe { x86::dot_i8_avx2(&ai, &bi) }, want_i, "n={n}");
            assert_eq!(unsafe { x86::dot_i8_sse2(&ai, &bi) }, want_i, "n={n}");

            let mut r = rng(50 + n as u64);
            let au: Vec<u32> = (0..n).map(|_| r.gen_range(0..4)).collect();
            let bu: Vec<u32> = (0..n).map(|_| r.gen_range(0..4)).collect();
            let want_m = scalar::match_count_u32(&au, &bu);
            assert_eq!(unsafe { x86::match_count_avx2(&au, &bu) }, want_m);
            assert_eq!(unsafe { x86::match_count_sse2(&au, &bu) }, want_m);

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
            let mut got = vec![7f32; n];
            unsafe { x86::relu_f32_sse2(&zs, &mut got) };
            assert_eq!(got, want_r, "sse2 relu n={n}");
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

    type Axpy = fn(f32, &[f32], &mut [f32]);
    type Add = fn(&[f32], &mut [f32]);

    /// Every tier this host can run, as `(name, axpy, add)`.
    fn elementwise_tiers() -> Vec<(&'static str, Axpy, Add)> {
        let mut tiers: Vec<(&'static str, Axpy, Add)> = vec![("dispatched", axpy_f32, add_f32)];
        #[cfg(target_arch = "x86_64")]
        {
            // Safety (all four closures): each tier is listed only after its
            // feature check, and SSE2 is the x86-64 baseline.
            tiers.push((
                "sse2",
                |a, x, y| unsafe { x86::axpy_f32_sse2(a, x, y) },
                |x, y| unsafe { x86::add_f32_sse2(x, y) },
            ));
            if is_x86_feature_detected!("avx2") {
                tiers.push((
                    "avx2",
                    |a, x, y| unsafe { x86::axpy_f32_avx2(a, x, y) },
                    |x, y| unsafe { x86::add_f32_avx2(x, y) },
                ));
            }
        }
        tiers
    }

    #[test]
    fn axpy_and_add_match_the_scalar_loop_bitwise_in_every_tier() {
        let scales = [1.5f32, -0.0, 0.0, f32::NAN, f32::from_bits(3), 1e30];
        for n in 0..=17usize {
            let x = edge_f32s(n, n as u64);
            let y0 = edge_f32s(n, 100 + n as u64);
            for (name, axpy, add) in elementwise_tiers() {
                for &a in &scales {
                    let mut want = y0.clone();
                    for (v, &xi) in want.iter_mut().zip(&x) {
                        *v += a * xi;
                    }
                    let mut got = y0.clone();
                    axpy(a, &x, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{name} axpy a={a} n={n}");
                }
                let mut want = y0.clone();
                for (v, &xi) in want.iter_mut().zip(&x) {
                    *v += xi;
                }
                let mut got = y0.clone();
                add(&x, &mut got);
                assert_eq!(bits(&got), bits(&want), "{name} add n={n}");
            }
        }
    }

    type ArgmaxGap = fn(f64, &[f64], usize) -> usize;

    /// Every partner-search tier this host can run, as `(name, kernel)`.
    fn argmax_gap_tiers() -> Vec<(&'static str, ArgmaxGap)> {
        let mut tiers: Vec<(&'static str, ArgmaxGap)> = vec![
            ("dispatched", argmax_gap_f64),
            ("scalar", scalar::argmax_gap_f64),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            // Safety (both closures): each tier is listed only after its
            // feature check, and SSE2 is the x86-64 baseline.
            tiers.push(("sse2", |e, v, skip| unsafe {
                x86::argmax_gap_sse2(e, v, skip)
            }));
            if is_x86_feature_detected!("avx2") {
                tiers.push(("avx2", |e, v, skip| unsafe {
                    x86::argmax_gap_avx2(e, v, skip)
                }));
            }
        }
        tiers
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
                        for (name, kernel) in argmax_gap_tiers() {
                            assert_eq!(
                                kernel(e, values, skip),
                                want,
                                "{name} n={n} skip={skip} e={e} values={values:?}"
                            );
                        }
                    }
                }
            }
            // An all-equal cache returns the first index that is not `skip`.
            for skip in 0..n {
                let first = usize::from(skip == 0);
                for (name, kernel) in argmax_gap_tiers() {
                    let got = kernel(0.25, &flat, skip);
                    let want = if first < n { first } else { usize::MAX };
                    assert_eq!(got, want, "{name} all-equal n={n} skip={skip}");
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

//! Per-tensor weight quantization: symmetric i8 (scale) and f16.
//!
//! Both encodings are *storage* transforms — training stays in f32/f64,
//! and a quantized artifact is produced offline from a full-precision one
//! (`hamlet-serve artifact convert --quantize {i8,f16}`). The error
//! contract per tensor:
//!
//! - **i8**: symmetric, `scale = max|v| / 127`, `q = round(v / scale)`
//!   clamped to ±127. Round-to-nearest guarantees
//!   `|dequant(q) − v| ≤ scale / 2` for every in-range element; there is
//!   no zero-point, so exact zeros stay exactly zero.
//! - **f16**: IEEE binary16 round-to-nearest-even. Exact for every value
//!   whose significand fits in 11 bits and whose exponent lies in
//!   [−24, 15] — which covers the bulk of trained, L2-regularized network
//!   weights — and relative error ≤ 2⁻¹¹ otherwise.
//!
//! Proptests at the bottom pin both bounds.

use crate::binenc::pod::F16;
use crate::kernels;

/// A symmetric i8 quantization of an f32 tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedI8 {
    /// Quantized elements, `len ==` source tensor len.
    pub data: Vec<i8>,
    /// Dequantization factor: `value ≈ data[i] as f32 * scale`.
    pub scale: f32,
}

/// Quantizes an f32 tensor to symmetric i8 with a per-tensor scale.
///
/// The all-zero (or empty) tensor gets `scale = 1.0` so dequantization is
/// always well-defined. Non-finite inputs are clamped through `round`'s
/// saturation into ±127.
pub fn quantize_i8(values: &[f32]) -> QuantizedI8 {
    let mut data = Vec::with_capacity(values.len());
    let scale = quantize_activations_i8(values, &mut data);
    QuantizedI8 { data, scale }
}

/// Quantizes an f64 tensor (SVM dual coefficients, logreg weights) the same
/// way, keeping the scale in f64.
pub fn quantize_i8_f64(values: &[f64]) -> (Vec<i8>, f64) {
    let max_abs = values.iter().fold(0f64, |m, v| m.max(v.abs()));
    let scale = if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / 127.0
    } else {
        1.0
    };
    let data = values
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (data, scale)
}

/// Dequantizes one i8 element.
#[inline]
pub fn dequant_i8(q: i8, scale: f32) -> f32 {
    f32::from(q) * scale
}

/// Converts an f32 tensor to f16 (round-to-nearest-even per element,
/// F16C-accelerated when the CPU has it — bit-identical to the software
/// path for every non-NaN weight).
pub fn quantize_f16(values: &[f32]) -> Vec<F16> {
    let mut out = vec![F16(0); values.len()];
    kernels::f32_to_f16_slice(values, &mut out);
    out
}

/// Converts an f64 tensor to f16 via f32 (two correctly-rounded steps; the
/// double rounding is immaterial at f16's 11-bit precision for the weight
/// magnitudes we store).
pub fn quantize_f16_f64(values: &[f64]) -> Vec<F16> {
    values.iter().map(|&v| F16::from_f32(v as f32)).collect()
}

/// Widens an f16 tensor back to f32 (lossless, F16C-accelerated when the
/// CPU has it — every tier is bit-identical).
pub fn dequantize_f16(values: &[F16]) -> Vec<f32> {
    let mut out = vec![0f32; values.len()];
    kernels::f16_to_f32_slice(values, &mut out);
    out
}

/// Quantizes a runtime f32 activation vector to i8 in place of `out`,
/// returning the per-row scale. This is the dynamic half of i8×i8
/// inference: weights carry a static per-tensor scale, activations get a
/// fresh scale per row, and the i32 dot product is rescaled by the product
/// of the two.
pub fn quantize_activations_i8(values: &[f32], out: &mut Vec<i8>) -> f32 {
    out.clear();
    let max_abs = values.iter().fold(0f32, |m, v| m.max(v.abs()));
    let scale = if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / 127.0
    } else {
        1.0
    };
    out.extend(
        values
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
    );
    scale
}

/// Whether an f32 survives the f16 round-trip exactly.
pub fn f16_is_exact(v: f32) -> bool {
    let bits = kernels::f32_to_f16_bits(v);
    kernels::f16_bits_to_f32(bits) == v || v.is_nan()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn i8_quantization_basics() {
        let q = quantize_i8(&[0.0, 1.0, -1.0, 0.5, 0.251]);
        assert_eq!(q.scale, 1.0 / 127.0);
        assert_eq!(q.data[0], 0);
        assert_eq!(q.data[1], 127);
        assert_eq!(q.data[2], -127);
        assert_eq!(q.data[3], 64); // 63.5 rounds half away from zero
                                   // Every element obeys the scale/2 bound.
        for (&orig, &qv) in [0.0f32, 1.0, -1.0, 0.5, 0.251].iter().zip(&q.data) {
            assert!((dequant_i8(qv, q.scale) - orig).abs() <= q.scale / 2.0 + f32::EPSILON);
        }
        // Degenerate tensors keep a well-defined scale.
        assert_eq!(quantize_i8(&[]).scale, 1.0);
        assert_eq!(quantize_i8(&[0.0, 0.0]).scale, 1.0);
        assert_eq!(quantize_i8(&[0.0, 0.0]).data, vec![0, 0]);
    }

    #[test]
    fn activation_quantization_reuses_the_buffer() {
        let mut buf = Vec::new();
        let s1 = quantize_activations_i8(&[2.0, -4.0, 1.0], &mut buf);
        assert_eq!(buf, vec![64, -127, 32]);
        assert!((s1 - 4.0 / 127.0).abs() < 1e-9);
        let s2 = quantize_activations_i8(&[0.0, 0.0], &mut buf);
        assert_eq!(buf, vec![0, 0]);
        assert_eq!(s2, 1.0);
    }

    #[test]
    fn f16_tensor_roundtrip() {
        let vals = [0.0f32, 1.0, -0.5, 0.25, 65504.0, -2.0];
        let h = quantize_f16(&vals);
        assert_eq!(dequantize_f16(&h), vals.to_vec());
        for &v in &vals {
            assert!(f16_is_exact(v), "{v}");
        }
        assert!(!f16_is_exact(0.1)); // 0.1 needs more than 11 mantissa bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite bound: i8 round-trip error ≤ per-tensor scale/2.
        #[test]
        fn i8_roundtrip_error_is_bounded_by_half_scale(
            raw in proptest::collection::vec(-1000.0f64..1000.0, 1..64),
        ) {
            let vals: Vec<f32> = raw.iter().map(|&v| v as f32).collect();
            let q = quantize_i8(&vals);
            prop_assert!(q.scale > 0.0);
            for (&orig, &qv) in vals.iter().zip(&q.data) {
                let err = (dequant_i8(qv, q.scale) - orig).abs();
                // A hair of slack for the f32 divide/multiply rounding.
                prop_assert!(
                    err <= q.scale / 2.0 * (1.0 + 1e-5),
                    "err {} vs scale/2 {}", err, q.scale / 2.0
                );
            }
        }

        /// Satellite bound: f16 is exact for 11-bit-significand values
        /// m · 2^(e−10) across the full binary16 exponent range (subnormals
        /// and 65504 included).
        #[test]
        fn f16_is_exact_for_11bit_mantissa_values(
            m in 0u32..2048,
            e in -14i32..=15,
            neg in 0i32..2,
        ) {
            let sign = if neg == 1 { -1.0f32 } else { 1.0 };
            let v = (m as f32) * ((e - 10) as f32).exp2() * sign;
            let bits = kernels::f32_to_f16_bits(v);
            prop_assert_eq!(
                kernels::f16_bits_to_f32(bits), v,
                "m={} e={} v={}", m, e, v
            );
        }

        /// f16 relative error bound for arbitrary in-range values: ≤ 2⁻¹¹.
        #[test]
        fn f16_relative_error_is_bounded(raw in -60000.0f64..60000.0) {
            let v = raw as f32;
            let back = kernels::f16_bits_to_f32(kernels::f32_to_f16_bits(v));
            if v == 0.0 {
                prop_assert_eq!(back, 0.0);
            } else if v.abs() >= 6.2e-5 {
                // Normal range: relative bound.
                prop_assert!(((back - v) / v).abs() <= 2f32.powi(-11));
            } else {
                // Subnormal range: absolute bound of half an ulp (2⁻²⁵).
                prop_assert!((back - v).abs() <= 2f32.powi(-25));
            }
        }
    }
}

//! Adam optimizer (Kingma & Ba, ICLR 2015) — the paper's choice, with the
//! algorithm's published default moment decays.
//!
//! The moments are `f32`, like the weights, and the step runs in `f32`
//! with one divide and one square root per parameter: the bias
//! corrections fold into `a = lr / (1 − β1ᵗ)` and `c = 1 / √(1 − β2ᵗ)`,
//! computed once per step in `f64` and rounded to `f32`, so
//! `w −= a·m / (√v·c + ε)`. The loop uses only IEEE-exact elementwise
//! operations (no fused multiply-add, no approximate reciprocal, no
//! reassociation), so it gives the same bits in every kernel tier and on
//! every CPU. Those are not the bits of the earlier `f64`-moment step,
//! which the tests keep as a reference: the trade is checked against the
//! paper reproduction's claims (`reproduce table3`), not against bits.

/// Per-tensor Adam state.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Fresh optimizer state for a tensor of `len` parameters.
    pub fn new(len: usize, lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// One update step: `w ← w − lr · m̂ / (√v̂ + ε)` with bias correction,
    /// on the gradient `g = grads · inv + l2 · w` (`g = grads · inv` when
    /// `l2` is `None`). The batch-mean scaling, the weight decay, the update
    /// and re-zeroing `grads` for the next batch share one pass.
    pub fn step_fused(
        &mut self,
        weights: &mut [f32],
        grads: &mut [f32],
        inv: f32,
        l2: Option<f32>,
    ) {
        debug_assert_eq!(weights.len(), grads.len());
        debug_assert_eq!(weights.len(), self.m.len());
        self.t += 1;
        let t = self.t as i32;
        let a = (self.lr / (1.0 - self.beta1.powi(t))) as f32;
        let c = (1.0 / (1.0 - self.beta2.powi(t)).sqrt()) as f32;
        let (beta1, beta2) = (self.beta1 as f32, self.beta2 as f32);
        // Exact in f32 (Sterbenz), so each moment's two weights sum to 1.
        let (one_b1, one_b2) = (1.0 - beta1, 1.0 - beta2);
        let eps = self.eps;
        let state = self.m.iter_mut().zip(self.v.iter_mut());
        for ((w, grad), (m, v)) in weights.iter_mut().zip(grads.iter_mut()).zip(state) {
            let g = match l2 {
                Some(l2) => *grad * inv + l2 * *w,
                None => *grad * inv,
            };
            *grad = 0.0;
            *m = beta1 * *m + one_b1 * g;
            *v = beta2 * *v + one_b2 * (g * g);
            *w -= a * *m / (v.sqrt() * c + eps);
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The `f64`-moment step the `f32` one replaced: three divides and a
    /// square root per parameter, each bias correction applied in the loop.
    struct ReferenceAdam {
        lr: f64,
        t: u64,
        m: Vec<f64>,
        v: Vec<f64>,
    }

    impl ReferenceAdam {
        fn new(len: usize, lr: f64) -> Self {
            Self {
                lr,
                t: 0,
                m: vec![0.0; len],
                v: vec![0.0; len],
            }
        }

        fn step_fused(
            &mut self,
            weights: &mut [f32],
            grads: &mut [f32],
            inv: f32,
            l2: Option<f32>,
        ) {
            self.t += 1;
            let (beta1, beta2, lr, eps) = (0.9f64, 0.999f64, self.lr, 1e-8f64);
            let b1t = 1.0 - beta1.powi(self.t as i32);
            let b2t = 1.0 - beta2.powi(self.t as i32);
            let state = self.m.iter_mut().zip(self.v.iter_mut());
            for ((w, grad), (m, v)) in weights.iter_mut().zip(grads.iter_mut()).zip(state) {
                let g = match l2 {
                    Some(l2) => *grad * inv + l2 * *w,
                    None => *grad * inv,
                };
                *grad = 0.0;
                let g = f64::from(g);
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / b1t;
                let v_hat = *v / b2t;
                *w -= (lr * m_hat / (v_hat.sqrt() + eps)) as f32;
            }
        }
    }

    #[test]
    fn first_step_moves_by_lr() {
        // With bias correction, the first Adam step ≈ lr · sign(g).
        let mut opt = Adam::new(1, 0.1);
        let mut w = [1.0f32];
        let mut g = [0.5f32];
        opt.step_fused(&mut w, &mut g, 1.0, None);
        assert!((f64::from(w[0]) - (1.0 - 0.1)).abs() < 1e-6);
        assert_eq!(opt.steps(), 1);
        assert_eq!(g, [0.0], "the step re-zeroes the gradient");
    }

    #[test]
    fn converges_on_a_quadratic() {
        // Minimise (w − 3)²; gradient 2(w − 3).
        let mut opt = Adam::new(1, 0.05);
        let mut w = [0.0f32];
        for _ in 0..2000 {
            let mut g = [2.0 * (w[0] - 3.0)];
            opt.step_fused(&mut w, &mut g, 1.0, None);
        }
        assert!((w[0] - 3.0).abs() < 1e-2, "w = {}", w[0]);
    }

    #[test]
    fn zero_gradient_is_a_fixed_point_from_cold_start() {
        let mut opt = Adam::new(2, 0.1);
        let mut w = [2.0f32, -1.0];
        opt.step_fused(&mut w, &mut [0.0, 0.0], 1.0, None);
        assert_eq!(w, [2.0, -1.0]);
    }

    #[test]
    fn fused_step_scales_and_decays_before_updating() {
        // g = 4 · 0.5 + 0.1 · 2 = 2.2 > 0, so the first step lowers w by lr.
        let mut opt = Adam::new(1, 0.01);
        let mut w = [2.0f32];
        let mut g = [4.0f32];
        opt.step_fused(&mut w, &mut g, 0.5, Some(0.1));
        assert!((f64::from(w[0]) - 1.99).abs() < 1e-6);
        // The decay alone moves a weight whose batch gradient is zero.
        let mut opt = Adam::new(1, 0.01);
        let mut w = [2.0f32];
        opt.step_fused(&mut w, &mut [0.0], 0.5, Some(0.1));
        assert!(w[0] < 2.0);
    }

    #[test]
    fn f32_step_tracks_the_f64_reference() {
        // 500 steps on seeded minibatch-like gradients: a quarter of the
        // entries see no gradient in a step (an inactive one-hot column),
        // the rest a sum over a batch of 32, scaled by `inv` to a mean in ±1.
        const LEN: usize = 4096;
        const STEPS: usize = 500;
        // `1 − β2` is 1.3e-5 smaller in f32 than in f64, so every update is
        // ~6.4e-6 larger than the reference's, plus a few ulps of rounding.
        // After 500 steps the worst weight is 4.8e-6 of its size (floored
        // at 1, as weights start in ±1) away; the bound is 2e-5.
        const REL: f32 = 2e-5;
        for (lr, l2) in [(1e-2, None), (1e-2, Some(1e-3f32)), (1e-3, Some(1e-2))] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(23);
            let w0: Vec<f32> = (0..LEN).map(|_| rng.gen_range(-1.0..1.0) as f32).collect();
            let (mut w, mut w_ref) = (w0.clone(), w0);
            let (mut opt, mut reference) = (Adam::new(LEN, lr), ReferenceAdam::new(LEN, lr));
            let inv = 1.0 / 32.0;
            for _ in 0..STEPS {
                let g: Vec<f32> = (0..LEN)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => 0.0,
                        _ => rng.gen_range(-32.0..32.0) as f32,
                    })
                    .collect();
                let (mut g1, mut g2) = (g.clone(), g);
                opt.step_fused(&mut w, &mut g1, inv, l2);
                reference.step_fused(&mut w_ref, &mut g2, inv, l2);
                assert!(g1.iter().all(|&x| x == 0.0));
            }
            for (i, (&a, &b)) in w.iter().zip(&w_ref).enumerate() {
                let bound = REL * b.abs().max(1.0);
                assert!(
                    (a - b).abs() <= bound,
                    "lr {lr} l2 {l2:?}: weight {i} is {a}, the reference {b}"
                );
            }
        }
    }
}

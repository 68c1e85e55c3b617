//! Adam optimizer (Kingma & Ba, ICLR 2015) — the paper's choice, with the
//! algorithm's published default moment decays.

/// Per-tensor Adam state.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
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
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
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

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

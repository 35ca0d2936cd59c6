//! DNN-Opt hyperparameters.

/// Hyperparameters of the DNN-Opt optimizer (paper §II).
///
/// The paper states that network architecture and learning rates "were
/// found based on empirical studies" without publishing them; the defaults
/// here were tuned on synthetic constrained problems (see
/// `bench/benches/ablation.rs`) and kept fixed for every experiment, as the
/// paper does.
#[derive(Debug, Clone)]
pub struct DnnOptConfig {
    /// Initial random (Latin-hypercube) samples `Ninit`.
    pub n_init: usize,
    /// Elite population size `Nes` (paper §II-D).
    pub n_elite: usize,
    /// Hidden-layer width of both networks.
    pub hidden: usize,
    /// Number of hidden layers of both networks.
    pub depth: usize,
    /// Critic Adam steps per iteration (each on a fresh pseudo-sample
    /// minibatch).
    pub critic_epochs: usize,
    /// Pseudo-sample minibatch size per critic step (subsampling cap for
    /// the N² Cartesian set, Eq. 2).
    pub critic_batch: usize,
    /// Critic Adam learning rate.
    pub critic_lr: f64,
    /// Actor Adam steps per iteration (full elite batch each).
    pub actor_epochs: usize,
    /// Actor Adam learning rate.
    pub actor_lr: f64,
    /// Boundary-violation weight λ of Eq. 5 ("chosen to be very large").
    pub lambda: f64,
    /// Initial exploration-noise σ, as a fraction of each variable's range.
    pub noise_initial: f64,
    /// Final exploration-noise σ (linear decay over the budget).
    pub noise_final: f64,
    /// Base RNG seed component (combined with the per-run seed).
    pub seed_offset: u64,
}

impl Default for DnnOptConfig {
    fn default() -> Self {
        DnnOptConfig {
            n_init: 20,
            n_elite: 10,
            hidden: 48,
            depth: 2,
            critic_epochs: 400,
            critic_batch: 128,
            critic_lr: 3e-3,
            actor_epochs: 100,
            actor_lr: 3e-3,
            lambda: 100.0,
            noise_initial: 0.10,
            noise_final: 0.03,
            seed_offset: 0x5eed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = DnnOptConfig::default();
        assert!(c.n_elite <= c.n_init);
        assert!(c.noise_final <= c.noise_initial);
        assert!(c.lambda > 1.0);
        assert!(c.hidden >= 8 && c.depth >= 1);
    }
}

//! The per-output-port arbiter: compiled grant streams by default,
//! with the interpreted reference engine selectable for differential
//! testing.
//!
//! Every table change (subnet-manager download, fault corruption)
//! funnels through [`PortArbiter::reconfigure`], which invalidates the
//! previous compiled schedule and recompiles — the single point the
//! fabric's `schedule_compile_total` / `schedule_invalidate_total`
//! accounting hangs off. A download that leaves a port's table
//! unchanged calls [`PortArbiter::reset`] instead: the walk restarts
//! and nothing recompiles.

use crate::config::ArbiterMode;
use iba_core::{CompiledVlArb, Grant, VlArbConfig, VlArbEngine};

/// The arbitration engine of one output port, in either mode.
///
/// Both variants expose the same mask-shaped query
/// ([`PortArbiter::select`]) and are grant-for-grant identical; the
/// interpreted variant adapts the mask back into the closure protocol
/// of [`VlArbEngine`]. The high-priority VL mask — consulted on every
/// kick by the priority-input-claiming extension — is cached at
/// (re)compile time instead of being re-derived from the table per
/// arbitration pass.
#[derive(Clone, Debug)]
pub enum PortArbiter {
    /// Compiled grant streams (the hot path).
    Compiled(CompiledVlArb),
    /// Interpreted table walking (the reference semantics).
    Interpreted {
        /// The reference engine.
        engine: VlArbEngine,
        /// Cached bitmask of VLs with nonzero high-table weight.
        high_mask: u16,
    },
}

/// Bitmask of VLs carrying nonzero weight in the high-priority table.
fn high_mask_of(config: &VlArbConfig) -> u16 {
    config
        .high
        .iter()
        .filter(|e| e.weight > 0)
        .fold(0u16, |m, e| m | 1 << e.vl.raw())
}

impl PortArbiter {
    /// Builds (and for [`ArbiterMode::Compiled`], compiles) the arbiter
    /// for `config`.
    #[must_use]
    pub fn new(config: VlArbConfig, mode: ArbiterMode) -> Self {
        match mode {
            ArbiterMode::Compiled => PortArbiter::Compiled(CompiledVlArb::new(config)),
            ArbiterMode::Interpreted => {
                let high_mask = high_mask_of(&config);
                PortArbiter::Interpreted {
                    engine: VlArbEngine::new(config),
                    high_mask,
                }
            }
        }
    }

    /// Installs a new table: the previous schedule (compiled stream or
    /// round-robin state) is discarded and rebuilt.
    pub fn reconfigure(&mut self, config: VlArbConfig) {
        match self {
            PortArbiter::Compiled(arb) => arb.reconfigure(config),
            PortArbiter::Interpreted { engine, high_mask } => {
                *high_mask = high_mask_of(&config);
                engine.reconfigure(config);
            }
        }
    }

    /// Restarts the walk on the installed table without recompiling:
    /// the arbiter is then exactly as a freshly built one for the same
    /// configuration.
    pub fn reset(&mut self) {
        match self {
            PortArbiter::Compiled(arb) => arb.reset(),
            PortArbiter::Interpreted { engine, .. } => engine.reset(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &VlArbConfig {
        match self {
            PortArbiter::Compiled(arb) => arb.config(),
            PortArbiter::Interpreted { engine, .. } => engine.config(),
        }
    }

    /// Cached bitmask of VLs with nonzero high-table weight.
    #[must_use]
    pub fn high_vl_mask(&self) -> u16 {
        match self {
            PortArbiter::Compiled(arb) => arb.high_stream().vl_mask(),
            PortArbiter::Interpreted { high_mask, .. } => *high_mask,
        }
    }

    /// Arbitrates one packet: bit `v` of `ready_mask` set iff VL `v`
    /// has a transmittable head packet of `bytes[v]` bytes.
    pub fn select(&mut self, ready_mask: u16, bytes: &[u64; 16]) -> Option<Grant> {
        match self {
            PortArbiter::Compiled(arb) => arb.select(ready_mask, bytes),
            PortArbiter::Interpreted { engine, .. } => {
                engine.select(|vl| (ready_mask & (1 << vl.index()) != 0).then(|| bytes[vl.index()]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::{ArbEntry, SplitMix64, VirtualLane};

    fn config() -> VlArbConfig {
        VlArbConfig {
            high: vec![
                ArbEntry {
                    vl: VirtualLane::data(1),
                    weight: 12,
                },
                ArbEntry {
                    vl: VirtualLane::data(3),
                    weight: 0,
                },
                ArbEntry {
                    vl: VirtualLane::data(2),
                    weight: 4,
                },
            ],
            low: vec![ArbEntry {
                vl: VirtualLane::data(0),
                weight: 255,
            }],
            limit_of_high_priority: 255,
        }
    }

    #[test]
    fn both_modes_agree_and_cache_the_high_mask() {
        let mut compiled = PortArbiter::new(config(), ArbiterMode::Compiled);
        let mut interpreted = PortArbiter::new(config(), ArbiterMode::Interpreted);
        // Weight-0 VL3 is not part of the high mask.
        assert_eq!(compiled.high_vl_mask(), 0b0110);
        assert_eq!(interpreted.high_vl_mask(), 0b0110);
        let bytes = [64u64; 16];
        for step in 0..200 {
            let mask = 0b0111 & (step as u16 | 1);
            assert_eq!(
                compiled.select(mask, &bytes),
                interpreted.select(mask, &bytes),
                "step {step}"
            );
        }
    }

    /// A seeded random table: up to 8 entries per priority over VL0..=5
    /// with weights 0..=4 (weight 0 exercises skipping), and a limit
    /// that includes the 0 and 255 edge cases.
    fn random_config(rng: &mut SplitMix64) -> VlArbConfig {
        let table = |rng: &mut SplitMix64| {
            let len = rng.next_u64() % 9;
            (0..len)
                .map(|_| ArbEntry {
                    vl: VirtualLane::data((rng.next_u64() % 6) as u8),
                    weight: (rng.next_u64() % 5) as u8,
                })
                .collect::<Vec<_>>()
        };
        let high = table(rng);
        let low = table(rng);
        let limit_of_high_priority = match rng.next_u64() % 4 {
            0 => 0,
            1 => 255,
            _ => (rng.next_u64() % 8) as u8,
        };
        VlArbConfig {
            high,
            low,
            limit_of_high_priority,
        }
    }

    /// A seeded ready mask over VL0..=5 with a head-packet size for
    /// every ready lane.
    fn random_ready(rng: &mut SplitMix64) -> (u16, [u64; 16]) {
        let mask = (rng.next_u64() % (1 << 6)) as u16;
        let mut bytes = [0u64; 16];
        for (v, b) in bytes.iter_mut().enumerate() {
            if mask & (1 << v) != 0 {
                *b = 64 * (1 + rng.next_u64() % 64);
            }
        }
        (mask, bytes)
    }

    #[test]
    fn reset_mid_walk_matches_a_fresh_arbiter_in_both_modes() {
        // A download that leaves a port's table unchanged only resets
        // its arbiter, so after any prefix of grants `reset` must leave
        // it exactly as a freshly built arbiter for the same table.
        let mut rng = SplitMix64::seed_from_u64(0xA2B1_7E5E);
        for case in 0..100 {
            let config = random_config(&mut rng);
            for mode in [ArbiterMode::Compiled, ArbiterMode::Interpreted] {
                let mut arb = PortArbiter::new(config.clone(), mode);
                for _ in 0..rng.next_u64() % 40 {
                    let (mask, bytes) = random_ready(&mut rng);
                    let _ = arb.select(mask, &bytes);
                }
                arb.reset();
                let mut fresh = PortArbiter::new(config.clone(), mode);
                assert_eq!(arb.high_vl_mask(), fresh.high_vl_mask());
                for step in 0..200 {
                    let (mask, bytes) = random_ready(&mut rng);
                    assert_eq!(
                        arb.select(mask, &bytes),
                        fresh.select(mask, &bytes),
                        "case {case} {mode:?} step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn reconfigure_refreshes_the_cached_mask() {
        let mut arb = PortArbiter::new(config(), ArbiterMode::Compiled);
        let mut low_only = config();
        low_only.high.clear();
        arb.reconfigure(low_only.clone());
        assert_eq!(arb.high_vl_mask(), 0);
        let mut interp = PortArbiter::new(config(), ArbiterMode::Interpreted);
        interp.reconfigure(low_only);
        assert_eq!(interp.high_vl_mask(), 0);
    }
}

//! Tests of the output-port arbiter as the fabric drives it.
//!
//! Every [`crate::port::OutputPort`] arbitrates through an
//! [`iba_core::CompiledVlArb`] and reads its high-priority VL mask from
//! `high_stream().vl_mask()` on every kick. These tests hold that port
//! arbiter, called with the fabric's mask-shaped `select`, to the
//! reference [`iba_core::VlArbEngine`] adapted to the same calls, and
//! check the mask it reports after every (re)configuration.

#[cfg(test)]
mod tests {
    use iba_core::{
        ArbEntry, CompiledVlArb, Grant, SplitMix64, VirtualLane, VlArbConfig, VlArbEngine,
    };

    /// The calls the fabric makes on a port's arbiter.
    trait Arbiter {
        fn build(config: VlArbConfig) -> Self;
        fn reconfigure(&mut self, config: VlArbConfig);
        fn reset(&mut self);
        fn high_vl_mask(&self) -> u16;
        fn select(&mut self, ready_mask: u16, bytes: &[u64; 16]) -> Option<Grant>;
    }

    impl Arbiter for CompiledVlArb {
        fn build(config: VlArbConfig) -> Self {
            CompiledVlArb::new(config)
        }
        fn reconfigure(&mut self, config: VlArbConfig) {
            CompiledVlArb::reconfigure(self, config);
        }
        fn reset(&mut self) {
            CompiledVlArb::reset(self);
        }
        fn high_vl_mask(&self) -> u16 {
            self.high_stream().vl_mask()
        }
        fn select(&mut self, ready_mask: u16, bytes: &[u64; 16]) -> Option<Grant> {
            CompiledVlArb::select(self, ready_mask, bytes)
        }
    }

    /// The reference engine behind the fabric's mask-shaped calls, with
    /// the high mask derived from the table itself.
    struct Reference(VlArbEngine);

    impl Arbiter for Reference {
        fn build(config: VlArbConfig) -> Self {
            Reference(VlArbEngine::new(config))
        }
        fn reconfigure(&mut self, config: VlArbConfig) {
            self.0.reconfigure(config);
        }
        fn reset(&mut self) {
            self.0.reset();
        }
        fn high_vl_mask(&self) -> u16 {
            self.0
                .config()
                .high
                .iter()
                .filter(|e| e.weight > 0)
                .fold(0u16, |m, e| m | 1 << e.vl.raw())
        }
        fn select(&mut self, ready_mask: u16, bytes: &[u64; 16]) -> Option<Grant> {
            self.0
                .select(|vl| (ready_mask & (1 << vl.index()) != 0).then(|| bytes[vl.index()]))
        }
    }

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
        let mut compiled = CompiledVlArb::build(config());
        let mut reference = Reference::build(config());
        // Weight-0 VL3 is not part of the high mask.
        assert_eq!(compiled.high_vl_mask(), 0b0110);
        assert_eq!(reference.high_vl_mask(), 0b0110);
        let bytes = [64u64; 16];
        for step in 0..200 {
            let mask = 0b0111 & (step as u16 | 1);
            assert_eq!(
                compiled.select(mask, &bytes),
                reference.select(mask, &bytes),
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

    /// After a random prefix of grants, `reset` leaves `A` exactly as a
    /// freshly built arbiter for the same table.
    fn reset_matches_fresh<A: Arbiter>(rng: &mut SplitMix64, config: &VlArbConfig, case: usize) {
        let mut arb = A::build(config.clone());
        for _ in 0..rng.next_u64() % 40 {
            let (mask, bytes) = random_ready(rng);
            let _ = arb.select(mask, &bytes);
        }
        arb.reset();
        let mut fresh = A::build(config.clone());
        assert_eq!(arb.high_vl_mask(), fresh.high_vl_mask());
        for step in 0..200 {
            let (mask, bytes) = random_ready(rng);
            assert_eq!(
                arb.select(mask, &bytes),
                fresh.select(mask, &bytes),
                "case {case} step {step}"
            );
        }
    }

    #[test]
    fn reset_mid_walk_matches_a_fresh_arbiter_in_both_modes() {
        // A download that leaves a port's table unchanged only resets
        // its arbiter, so after any prefix of grants `reset` must leave
        // it exactly as a freshly built arbiter for the same table.
        let mut rng = SplitMix64::seed_from_u64(0xA2B1_7E5E);
        for case in 0..100 {
            let config = random_config(&mut rng);
            reset_matches_fresh::<CompiledVlArb>(&mut rng, &config, case);
            reset_matches_fresh::<Reference>(&mut rng, &config, case);
        }
    }

    #[test]
    fn reconfigure_refreshes_the_cached_mask() {
        let mut low_only = config();
        low_only.high.clear();
        let mut arb = CompiledVlArb::build(config());
        arb.reconfigure(low_only.clone());
        assert_eq!(arb.high_vl_mask(), 0);
        let mut reference = Reference::build(config());
        reference.reconfigure(low_only);
        assert_eq!(reference.high_vl_mask(), 0);
    }
}

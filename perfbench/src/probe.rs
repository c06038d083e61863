//! Layer timings taken outside the simulation, on shapes taken from
//! the workload itself: the compiled grant select over the fabric's own
//! port tables, and the event-queue hold at the queue depth the traced
//! run saw.

use crate::report::stopwatch;
use iba_core::rng::SplitMix64;
use iba_core::{CompiledVlArb, VlArbConfig};
use iba_sim::{Event, EventQueue};
use std::hint::black_box;

/// Nanoseconds per `CompiledVlArb::select` over `configs` (one compiled
/// arbiter per port), with every table VL ready and `packet_bytes`
/// waiting on each.
pub fn select_ns(configs: &[VlArbConfig], packet_bytes: u64) -> f64 {
    let mut arbs: Vec<(CompiledVlArb, u16)> = configs
        .iter()
        .map(|c| {
            let mask = c
                .high
                .iter()
                .chain(&c.low)
                .filter(|e| e.weight > 0)
                .fold(0u16, |m, e| m | 1 << e.vl.index());
            (CompiledVlArb::new(c.clone()), mask)
        })
        .collect();
    let bytes = [packet_bytes; 16];
    let rounds = (2_000_000 / arbs.len().max(1)).max(1);
    let t = stopwatch();
    for _ in 0..rounds {
        for (arb, mask) in &mut arbs {
            black_box(arb.select(black_box(*mask), &bytes));
        }
    }
    t.elapsed().as_nanos() as f64 / (rounds * arbs.len()).max(1) as f64
}

/// Nanoseconds per `EventQueue` hold (one pop plus one push) with
/// `depth` events pending. Each popped event is rescheduled a uniform
/// look-ahead later whose mean keeps `depth` events in flight at the
/// workload's own `cycles_per_event`.
pub fn hold_ns(depth: usize, cycles_per_event: f64, seed: u64) -> f64 {
    let depth = depth.max(1);
    let span = ((2.0 * depth as f64 * cycles_per_event).round() as u64).max(2);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut q = EventQueue::new();
    for flow in 0..depth as u32 {
        q.push(rng.gen_range(0..span), Event::Generate { flow });
    }
    let holds = 2_000_000;
    let t = stopwatch();
    for _ in 0..holds {
        let (now, ev) = q.pop().expect("the queue holds `depth` events");
        q.push(now + rng.gen_range(1..span), black_box(ev));
    }
    t.elapsed().as_nanos() as f64 / f64::from(holds)
}

//! Shared glue for the experiment binaries: the experiment pipeline
//! itself lives in `iba-harness` (pure functions of explicit
//! parameters); this crate reads the environment knobs into one
//! [`SimPoint`] so every table/figure binary runs the same pipeline
//! with the same defaults.
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `IBA_SWITCHES` | 16 | fabric size (paper headline: 16 / 64 hosts) |
//! | `IBA_SEED` | 42 | topology + workload seed |
//! | `IBA_STEADY_PACKETS` | 30 | steady state runs until the slowest connection emitted this many packets |
//! | `IBA_REJECT_LIMIT` | 120 | consecutive rejections that end the fill phase |
//! | `IBA_THREADS` | available parallelism | worker threads for sweeps |
//!
//! The defaults are [`SimPoint::paper`]'s. A binary that runs a
//! lighter or different scenario passes its own defaults to
//! [`point_from_env`]: sweeps S2–S4 and ablation A3 use 10 steady
//! packets, and A4 uses 8 switches and seed 43.

#![forbid(unsafe_code)]

pub mod microbench;

pub use iba_harness::SimPoint;

/// Reads a numeric environment knob. Callers pass documented `IBA_*`
/// names only (see README's knob table).
pub fn env_u64(name: &str, default: u64) -> u64 {
    // lint: allow(no-env-read) -- generic reader; every call site passes a documented IBA_* literal
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The one reader of the run knobs: `defaults` with `IBA_SWITCHES`,
/// `IBA_SEED`, `IBA_STEADY_PACKETS` and `IBA_REJECT_LIMIT` applied
/// wherever the environment sets them.
#[must_use]
pub fn point_from_env(defaults: SimPoint) -> SimPoint {
    SimPoint {
        switches: env_u64("IBA_SWITCHES", defaults.switches as u64) as usize,
        seed: env_u64("IBA_SEED", defaults.seed),
        steady_packets: env_u64("IBA_STEADY_PACKETS", defaults.steady_packets),
        reject_limit: env_u64("IBA_REJECT_LIMIT", u64::from(defaults.reject_limit)) as u32,
        ..defaults
    }
}

/// Formats a percentage for the tables.
pub fn pct(v: f64) -> String {
    format!("{v:.2}")
}

/// Human label for a deadline-threshold fraction: `D/30 … D/2, 3D/4, D`.
pub fn threshold_label(t: f64) -> String {
    if (t - 1.0).abs() < 1e-9 {
        "D".to_string()
    } else if (t - 0.75).abs() < 1e-9 {
        "3D/4".to_string()
    } else {
        format!("D/{:.0}", 1.0 / t)
    }
}

/// Formats a small rate (bytes/cycle/node).
pub fn rate(v: f64) -> String {
    format!("{v:.4}")
}

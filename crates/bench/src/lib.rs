//! Shared glue for the experiment binaries: the experiment pipeline
//! itself lives in `iba-harness` (pure functions of explicit
//! parameters); this crate layers the environment knobs on top so every
//! table/figure binary runs the same pipeline with the same defaults.
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `IBA_SWITCHES` | 16 | fabric size (paper headline: 16 / 64 hosts) |
//! | `IBA_SEED` | 42 | topology + workload seed |
//! | `IBA_STEADY_PACKETS` | 30 | steady state runs until the slowest connection emitted this many packets |
//! | `IBA_REJECT_LIMIT` | 120 | consecutive rejections that end the fill phase |
//! | `IBA_THREADS` | available parallelism | worker threads for sweeps |

#![forbid(unsafe_code)]

pub mod microbench;

pub use iba_harness::{Experiment, Measured, PointOutcome, SimPoint};
use iba_obs::NullRecorder;

/// Reads a numeric environment knob. Callers pass documented `IBA_*`
/// names only (see README's knob table).
pub fn env_u64(name: &str, default: u64) -> u64 {
    // lint: allow(no-env-read) -- generic reader; every call site passes a documented IBA_* literal
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds the paper's fabric, fills it to saturation and returns the
/// ready-to-run experiment (`IBA_SWITCHES` / `IBA_SEED` sized).
pub fn build_experiment(mtu: u32) -> Experiment {
    let switches = env_u64("IBA_SWITCHES", 16) as usize;
    let seed = env_u64("IBA_SEED", 42);
    build_experiment_sized(mtu, switches, seed)
}

/// Same, with explicit size and seed (used by the size sweep).
pub fn build_experiment_sized(mtu: u32, switches: usize, seed: u64) -> Experiment {
    let reject_limit = env_u64("IBA_REJECT_LIMIT", 120) as u32;
    iba_harness::build_experiment_sized(mtu, switches, seed, reject_limit)
}

/// Runs the experiment: transient period, then a steady state of
/// `IBA_STEADY_PACKETS` packets on the slowest connection.
pub fn run_measured(exp: &Experiment, background: bool) -> Measured {
    let steady_packets = env_u64("IBA_STEADY_PACKETS", 30);
    iba_harness::run_measured(exp, steady_packets, background, None, &mut NullRecorder)
}

/// A [`SimPoint`] with the environment defaults applied: the same run
/// [`build_experiment`] + [`run_measured`] would execute.
pub fn env_point(mtu: u32, background: bool) -> SimPoint {
    SimPoint {
        switches: env_u64("IBA_SWITCHES", 16) as usize,
        seed: env_u64("IBA_SEED", 42),
        mtu,
        background,
        steady_packets: env_u64("IBA_STEADY_PACKETS", 30),
        reject_limit: env_u64("IBA_REJECT_LIMIT", 120) as u32,
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

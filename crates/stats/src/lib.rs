//! # iba-stats — measurement and reporting
//!
//! Dependency-free accumulators for the paper's metrics:
//!
//! * [`delay`] — per-connection delay distributions against deadline
//!   thresholds (Figures 4 and 6);
//! * [`jitter`] — interarrival-time deviation histograms (Figure 5);
//! * [`util`] — throughput / utilisation / reservation aggregation
//!   (Table 2);
//! * [`report`] — ASCII tables and CSV output shared by the experiment
//!   binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delay;
pub mod jitter;
pub mod report;
pub mod util;

pub use delay::{DelayCollector, DelayDistribution, DEFAULT_THRESHOLDS};
pub use jitter::{JitterCollector, JitterHistogram, JITTER_BIN_LABELS};
pub use report::Table;
pub use util::{MeanAccumulator, UtilizationSummary};

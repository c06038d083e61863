//! One-call experiment orchestration: fill the fabric with connections
//! up to its admission limit, then produce the flows, the configured
//! fabric and the measurement observer.

use crate::manager::QosManager;
use crate::measure::QosObserver;
use iba_core::rng::SplitMix64;
use iba_core::SlTable;
use iba_sim::{Fabric, FlowSpec, SimConfig};
use iba_topo::{RoutingTable, Topology};
use iba_traffic::besteffort::{background_flows, BackgroundConfig};
use iba_traffic::{flow_for_connection, RequestGenerator};

/// First flow id used for background traffic (QoS connection ids are
/// dense from 0, so this never collides).
pub const BACKGROUND_FLOW_BASE: u32 = 1_000_000;

/// Outcome of the fill phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct FillReport {
    /// Requests attempted.
    pub attempted: u32,
    /// Requests admitted.
    pub accepted: u32,
    /// Aggregate offered load of the admitted connections, in
    /// bytes/cycle (sum over sources).
    pub offered_load: f64,
}

/// The global QoS frame: a manager plus the simulation configuration,
/// with helpers to run the paper's experiment sequence.
#[derive(Clone, Debug)]
pub struct QosFrame {
    /// The subnet manager (tables + connections).
    pub manager: QosManager,
    sim_config: SimConfig,
}

impl QosFrame {
    /// New frame over a topology: a manager with the paper's defaults
    /// that takes the fabric's header bytes, link rate and SL→VL
    /// mapping from `sim_config`.
    #[must_use]
    pub fn new(
        topo: Topology,
        routing: RoutingTable,
        sl_table: SlTable,
        sim_config: SimConfig,
    ) -> Self {
        let mut manager = QosManager::new(topo, routing, sl_table);
        manager.configure(&sim_config);
        QosFrame {
            manager,
            sim_config,
        }
    }

    /// Frame around an existing manager (ablations pick their own
    /// allocator / QoS share). The manager's header bytes, link rate
    /// and SL→VL mapping must be `sim_config`'s: a manager built by
    /// `QosManager::new` agrees with the default (1x, identity-mapped,
    /// header-free) configurations, and any other fabric goes through
    /// [`QosFrame::new`].
    #[must_use]
    pub fn with_manager(manager: QosManager, sim_config: SimConfig) -> Self {
        assert!(
            manager.agrees_with(&sim_config),
            "the manager's header bytes, link rate or SL->VL mapping differ from the simulation config's"
        );
        QosFrame {
            manager,
            sim_config,
        }
    }

    /// Establishes connections from the generator until
    /// `stop_after_rejects` consecutive rejections (the network is then
    /// "quasi-fully loaded") or `max_attempts` total attempts.
    pub fn fill(
        &mut self,
        gen: &mut RequestGenerator,
        stop_after_rejects: u32,
        max_attempts: u32,
    ) -> FillReport {
        self.fill_observed(
            gen,
            stop_after_rejects,
            max_attempts,
            &mut iba_obs::NullRecorder,
        )
    }

    /// [`QosFrame::fill`] with instrumentation: every admission attempt
    /// records its `cac_admit_total` / `cac_reject_total` outcome and
    /// the allocator probe metrics of each hop into `rec`.
    pub fn fill_observed(
        &mut self,
        gen: &mut RequestGenerator,
        stop_after_rejects: u32,
        max_attempts: u32,
        rec: &mut dyn iba_obs::Recorder,
    ) -> FillReport {
        let mut report = FillReport::default();
        let mut consecutive = 0;
        while report.attempted < max_attempts && consecutive < stop_after_rejects {
            let req = gen.next_request();
            report.attempted += 1;
            match self.manager.request_observed(&req, rec) {
                Ok(_) => {
                    report.accepted += 1;
                    consecutive = 0;
                }
                Err(_) => consecutive += 1,
            }
        }
        report.offered_load = self
            .manager
            .connections()
            .map(|(_, c)| f64::from(c.request.packet_bytes) / c.interarrival as f64)
            .sum();
        report
    }

    /// CBR flows for every admitted connection, with deterministic
    /// random phases.
    #[must_use]
    pub fn qos_flows(&self, phase_seed: u64) -> Vec<FlowSpec> {
        let mut rng = SplitMix64::seed_from_u64(phase_seed);
        self.manager
            .connections()
            .map(|(_, c)| {
                let phase = rng.gen_range(0..c.interarrival.max(1));
                flow_for_connection(&c.request, phase)
            })
            .collect()
    }

    /// Builds the configured fabric: arbitration tables applied, QoS
    /// flows added, optional best-effort background added. Returns the
    /// fabric and an observer pre-registered with every connection.
    #[must_use]
    pub fn build_fabric(
        &self,
        phase_seed: u64,
        background: Option<&BackgroundConfig>,
    ) -> (Fabric, QosObserver) {
        let mut fabric = Fabric::new(
            self.manager.topology().clone(),
            self.manager.routing().clone(),
            self.sim_config.clone(),
        );
        self.manager.apply_tables(&mut fabric);
        for flow in self.qos_flows(phase_seed) {
            fabric.add_flow(flow);
        }
        if let Some(bg) = background {
            for flow in background_flows(self.manager.topology(), bg, BACKGROUND_FLOW_BASE) {
                fabric.add_flow(flow);
            }
        }
        let observer = QosObserver::from_manager(&self.manager);
        (fabric, observer)
    }

    /// The smallest interarrival-time-normalised measurement horizon:
    /// the paper runs the steady state "until the connection with a
    /// smaller mean bandwidth has received N packets"; this returns the
    /// number of cycles needed for the slowest connection to emit
    /// `packets` packets.
    #[must_use]
    pub fn steady_state_cycles(&self, packets: u64) -> u64 {
        self.manager
            .connections()
            .map(|(_, c)| c.interarrival * packets)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_topo::{irregular, updown};
    use iba_traffic::WorkloadConfig;

    fn small_frame(seed: u64) -> QosFrame {
        let topo = irregular::generate(irregular::IrregularConfig::with_switches(4, seed));
        let routing = updown::compute(&topo);
        QosFrame::new(
            topo,
            routing,
            SlTable::paper_table1(),
            SimConfig::paper_default(256),
        )
    }

    #[test]
    fn fill_admits_until_saturation() {
        let mut f = small_frame(1);
        let topo = f.manager.topology().clone();
        let mut gen = RequestGenerator::new(
            &topo,
            &SlTable::paper_table1(),
            &WorkloadConfig::new(256, 42),
        );
        let report = f.fill(&mut gen, 40, 5000);
        assert!(report.accepted > 20, "only {} accepted", report.accepted);
        assert!(report.attempted > report.accepted);
        assert!(report.offered_load > 0.0);
        f.manager.port_tables().check_all().unwrap();
    }

    #[test]
    fn flows_match_connections() {
        let mut f = small_frame(2);
        let topo = f.manager.topology().clone();
        let mut gen = RequestGenerator::new(
            &topo,
            &SlTable::paper_table1(),
            &WorkloadConfig::new(256, 42),
        );
        f.fill(&mut gen, 20, 300);
        let flows = f.qos_flows(9);
        assert_eq!(flows.len(), f.manager.live_connections());
        // Phases are deterministic.
        let again = f.qos_flows(9);
        for (a, b) in flows.iter().zip(&again) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn build_fabric_registers_observer() {
        let mut f = small_frame(3);
        let topo = f.manager.topology().clone();
        let mut gen = RequestGenerator::new(
            &topo,
            &SlTable::paper_table1(),
            &WorkloadConfig::new(256, 1),
        );
        f.fill(&mut gen, 20, 200);
        let (fabric, obs) = f.build_fabric(7, Some(&BackgroundConfig::default()));
        assert_eq!(obs.registered(), f.manager.live_connections());
        assert_eq!(fabric.now(), 0);
    }

    #[test]
    fn steady_state_tracks_slowest_connection() {
        let mut f = small_frame(4);
        let topo = f.manager.topology().clone();
        let mut gen = RequestGenerator::new(
            &topo,
            &SlTable::paper_table1(),
            &WorkloadConfig::new(256, 2),
        );
        f.fill(&mut gen, 20, 100);
        let max_iat = f
            .manager
            .connections()
            .map(|(_, c)| c.interarrival)
            .max()
            .unwrap();
        assert_eq!(f.steady_state_cycles(10), max_iat * 10);
    }
}

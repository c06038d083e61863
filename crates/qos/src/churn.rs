//! Dynamic scenarios: connections arriving and departing while the
//! fabric runs ("both algorithms together permit the meeting and
//! release of sequences in an optimal and dynamical way").
//!
//! The [`ChurnRunner`] interleaves simulation with admission events:
//! at each arrival it asks the manager for a reservation, downloads the
//! updated arbitration tables into the fabric (the subnet-management
//! step) and starts the flow; at each departure it stops the flow and
//! releases the reservation, triggering defragmentation inside the
//! affected tables.

use crate::connection::ConnectionId;
use crate::frame::QosFrame;
use crate::measure::QosObserver;
use iba_sim::{Cycles, Fabric};
use iba_traffic::{flow_for_connection, ConnectionRequest};
use std::collections::VecDeque;

/// One scheduled churn event.
#[derive(Clone, Debug)]
pub enum ChurnEvent {
    /// A connection request arrives at `at`.
    Arrive {
        /// Simulation time of the arrival.
        at: Cycles,
        /// The request.
        request: ConnectionRequest,
    },
    /// The oldest live churn-admitted connection departs at `at`.
    DepartOldest {
        /// Simulation time of the departure.
        at: Cycles,
    },
}

impl ChurnEvent {
    fn at(&self) -> Cycles {
        match self {
            ChurnEvent::Arrive { at, .. } | ChurnEvent::DepartOldest { at } => *at,
        }
    }
}

/// Counters reported by a churn run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnStats {
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Departures executed.
    pub departed: u64,
    /// Departure events with nothing to tear down.
    pub empty_departures: u64,
}

/// Drives a fabric through a churn scenario.
pub struct ChurnRunner {
    events: Vec<ChurnEvent>,
    /// Live churn-admitted connections, oldest first.
    live: VecDeque<(ConnectionId, u32)>,
    stats: ChurnStats,
}

impl ChurnRunner {
    /// Builds a runner; events are sorted by time.
    #[must_use]
    pub fn new(mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by_key(ChurnEvent::at);
        ChurnRunner {
            events,
            live: VecDeque::new(),
            stats: ChurnStats::default(),
        }
    }

    /// Runs the scenario: simulates up to each event time, applies the
    /// event, and finally runs until `horizon`. The observer keeps
    /// accumulating; new connections are registered as they are
    /// admitted.
    pub fn run(
        mut self,
        frame: &mut QosFrame,
        fabric: &mut Fabric,
        observer: &mut QosObserver,
        horizon: Cycles,
    ) -> ChurnStats {
        let events = std::mem::take(&mut self.events);
        for event in events {
            let t = event.at().min(horizon);
            fabric.run_until(t, observer);
            match event {
                ChurnEvent::Arrive { request, .. } => {
                    match frame.manager.request(&request) {
                        Ok(id) => {
                            self.stats.admitted += 1;
                            let conn = frame.manager.connection(id);
                            assert!(conn.is_some(), "admitted connection must exist");
                            let Some(conn) = conn else { continue };
                            observer.register(
                                request.id,
                                request.sl.raw(),
                                conn.deadline,
                                conn.interarrival,
                            );
                            // Subnet-management download, then start the
                            // source.
                            frame.manager.apply_tables(fabric);
                            let phase = fabric.now()
                                + (u64::from(request.id) * 97) % conn.interarrival.max(1);
                            fabric.add_flow(flow_for_connection(&request, 0).with_start(phase));
                            self.live.push_back((id, request.id));
                        }
                        Err(_) => self.stats.rejected += 1,
                    }
                }
                ChurnEvent::DepartOldest { at } => match self.live.pop_front() {
                    None => self.stats.empty_departures += 1,
                    Some((conn_id, flow_id)) => {
                        fabric.stop_flow(flow_id, at);
                        assert!(frame.manager.teardown(conn_id));
                        frame.manager.apply_tables(fabric);
                        self.stats.departed += 1;
                    }
                },
            }
        }
        fabric.run_until(horizon, observer);
        self.stats
    }
}

/// Small helper so churn can set an absolute start time on a flow spec.
trait WithStart {
    fn with_start(self, start: Cycles) -> Self;
}

impl WithStart for iba_sim::FlowSpec {
    fn with_start(mut self, start: Cycles) -> Self {
        self.start = start;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::{Distance, ServiceLevel, SlTable};
    use iba_sim::SimConfig;
    use iba_topo::irregular::{generate, IrregularConfig};
    use iba_topo::{updown, HostId};

    fn frame(seed: u64) -> QosFrame {
        let topo = generate(IrregularConfig::with_switches(4, seed));
        let routing = updown::compute(&topo);
        QosFrame::new(
            topo,
            routing,
            SlTable::paper_table1(),
            SimConfig::paper_default(256),
        )
    }

    fn req(id: u32, src: u16, dst: u16) -> ConnectionRequest {
        ConnectionRequest {
            id,
            src: HostId(src),
            dst: HostId(dst),
            sl: ServiceLevel::new(4).unwrap(),
            distance: Distance::D32,
            mean_bw_mbps: 8.0,
            packet_bytes: 256,
        }
    }

    #[test]
    fn arrivals_and_departures_balance() {
        let mut f = frame(1);
        let (mut fabric, mut obs) = f.build_fabric(0, None);
        let events = vec![
            ChurnEvent::Arrive {
                at: 0,
                request: req(0, 0, 9),
            },
            ChurnEvent::Arrive {
                at: 100_000,
                request: req(1, 1, 8),
            },
            ChurnEvent::DepartOldest { at: 500_000 },
            ChurnEvent::Arrive {
                at: 600_000,
                request: req(2, 2, 7),
            },
            ChurnEvent::DepartOldest { at: 900_000 },
            ChurnEvent::DepartOldest { at: 950_000 },
        ];
        let stats = ChurnRunner::new(events).run(&mut f, &mut fabric, &mut obs, 2_000_000);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.departed, 3);
        assert_eq!(stats.rejected, 0);
        assert_eq!(f.manager.live_connections(), 0);
        f.manager.port_tables().check_all().unwrap();
        assert!(obs.qos_packets > 0);
    }

    #[test]
    fn departure_on_empty_is_counted_not_fatal() {
        let mut f = frame(2);
        let (mut fabric, mut obs) = f.build_fabric(0, None);
        let events = vec![ChurnEvent::DepartOldest { at: 10 }];
        let stats = ChurnRunner::new(events).run(&mut f, &mut fabric, &mut obs, 1000);
        assert_eq!(stats.empty_departures, 1);
    }

    #[test]
    fn events_are_time_sorted() {
        let mut f = frame(3);
        let (mut fabric, mut obs) = f.build_fabric(0, None);
        // Deliberately unsorted input.
        let events = vec![
            ChurnEvent::Arrive {
                at: 500_000,
                request: req(1, 1, 8),
            },
            ChurnEvent::Arrive {
                at: 0,
                request: req(0, 0, 9),
            },
        ];
        let stats = ChurnRunner::new(events).run(&mut f, &mut fabric, &mut obs, 1_000_000);
        assert_eq!(stats.admitted, 2);
        assert_eq!(f.manager.live_connections(), 2);
    }
}

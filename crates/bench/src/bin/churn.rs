//! **Dynamic scenario D1** — connections arriving and departing while
//! traffic flows ("the meeting and release of sequences in an optimal
//! and dynamical way").
//!
//! Random arrivals and departures churn a running fabric; after every
//! event the tables are re-downloaded (and defragmented on release).
//! The run reports admission statistics and verifies no live connection
//! ever misses a deadline.

#![forbid(unsafe_code)]

use iba_bench::{env_u64, point_from_env, SimPoint};
use iba_core::SlTable;
use iba_qos::{ChurnEvent, ChurnRunner, QosFrame};
use iba_sim::SimConfig;
use iba_stats::Table;
use iba_topo::irregular::{generate, IrregularConfig};
use iba_topo::updown;
use iba_traffic::{RequestGenerator, WorkloadConfig};

fn main() {
    let SimPoint { switches, seed, .. } = point_from_env(SimPoint::paper(256, 42));
    let topo = generate(IrregularConfig::with_switches(switches, seed));
    let routing = updown::compute(&topo);
    let sl_table = SlTable::paper_table1();
    let mut frame = QosFrame::new(
        topo.clone(),
        routing,
        sl_table.clone(),
        SimConfig::paper_default(256),
    );

    // Schedule: an arrival every 50k cycles; from half-time on, a
    // departure follows every arrival (steady churn).
    let mut gen = RequestGenerator::new(&topo, &sl_table, &WorkloadConfig::new(256, seed ^ 0xD1));
    let n_events = env_u64("IBA_CHURN_EVENTS", 800);
    let mut events = Vec::new();
    for k in 0..n_events {
        let at = k * 50_000;
        events.push(ChurnEvent::Arrive {
            at,
            request: gen.next_request(),
        });
        if k > n_events / 2 {
            events.push(ChurnEvent::DepartOldest { at: at + 25_000 });
        }
    }
    let horizon = n_events * 50_000 + 10_000_000;

    let (mut fabric, mut obs) = frame.build_fabric(seed, None);
    let stats = ChurnRunner::new(events).run(&mut frame, &mut fabric, &mut obs, horizon);

    let mut t = Table::new("Dynamic churn on a running fabric", &["Metric", "Value"]);
    t.row(vec!["arrivals admitted".into(), stats.admitted.to_string()]);
    t.row(vec!["arrivals rejected".into(), stats.rejected.to_string()]);
    t.row(vec!["departures".into(), stats.departed.to_string()]);
    t.row(vec![
        "connections live at end".into(),
        frame.manager.live_connections().to_string(),
    ]);
    t.row(vec![
        "QoS packets delivered".into(),
        obs.qos_packets.to_string(),
    ]);
    let misses: u64 = obs.delay_by_sl.groups().map(|(_, d)| d.missed()).sum();
    t.row(vec!["deadline misses".into(), misses.to_string()]);
    let worst = obs
        .delay_by_sl
        .groups()
        .map(|(_, d)| d.max_ratio())
        .fold(0.0f64, f64::max);
    t.row(vec!["worst delay/D".into(), format!("{worst:.3}")]);
    println!("{}", t.render());

    frame
        .manager
        .port_tables()
        .check_all()
        .expect("tables consistent");
    println!("all tables internally consistent after churn ✓");
}

//! The packet pool holds switch-buffered packets only.
//!
//! Table-1 frames (256-byte MTU; 4 and 8 switches; seeds 42 and 7) run
//! with the default best-effort background, whose open-loop CBR
//! sources outrun the up*/down* core, so host backlogs grow without
//! bound. The host lanes hold that backlog as runs of a flow, so the
//! shared packet pool never holds more than the switch input buffers
//! can: switches x ports x 16 VLs x `vl_buffer_packets`. Two windows of
//! twice the slowest interarrival time each check both the growth and
//! the bound.

use infiniband_qos::harness::build_experiment_sized;
use infiniband_qos::prelude::BackgroundConfig;
use infiniband_qos::sim::NullObserver;

#[test]
fn host_backlog_grows_outside_the_packet_pool() {
    for (switches, seed) in [(4, 42), (8, 7)] {
        let exp = build_experiment_sized(256, switches, seed, 40);
        let (mut fabric, _) = exp
            .frame
            .build_fabric(exp.seed ^ 0xABCD, Some(&BackgroundConfig::default()));
        let topo = fabric.topology();
        let bound = topo.num_switches()
            * usize::from(topo.ports_per_switch())
            * 16
            * fabric.config().vl_buffer_packets as usize;
        let hosts = topo.host_ids().collect::<Vec<_>>();
        let window = 2 * exp.frame.steady_state_cycles(1);
        let mut backlogs = Vec::new();
        for w in 1..=2 {
            fabric.run_until(w * window, &mut NullObserver);
            let (in_use, high_water) = fabric.pool_usage();
            assert!(
                in_use <= bound && high_water <= bound,
                "{switches} switches, seed {seed}, window {w}: pool holds {in_use} \
                 (high water {high_water}) over the switch-buffer bound {bound}"
            );
            backlogs.push(
                hosts
                    .iter()
                    .map(|&h| fabric.host_backlog(h))
                    .collect::<Vec<_>>(),
            );
        }
        assert!(
            backlogs[1].iter().zip(&backlogs[0]).any(|(b, a)| b > a),
            "{switches} switches, seed {seed}: no host backlog grew"
        );
    }
}

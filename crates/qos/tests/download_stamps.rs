//! Differential test of the stamp-tracked table download.
//!
//! [`QosManager::apply_tables`] compares and recompiles only the ports
//! whose download key (the stamps of the table the manager would
//! install there) differs from the key the fabric recorded for that
//! port. This test drives two fabrics through one seeded sequence of
//! every way a table can change — admits, teardowns, rejected requests
//! that roll back, manager-side corrupt-and-repair drills, in-fabric
//! `CorruptTable` faults, hand-installed tables, a low-priority policy
//! change, and two diverging clones of one manager downloading
//! alternately — and downloads into one fabric with `apply_tables` and
//! into the other with the compare-everything download it replaced.
//! After every download each port must hold `arb_config_for`, both
//! fabrics must have compiled the same number of schedules, and both
//! must have delivered the same packets at the same times.
//!
//! At the end, tearing down every live handle of both clones must leave
//! every table empty (the drain oracle): repairs keep connections bound
//! to what they hold.
//!
//! Two negative controls re-run the sequence and require the
//! differential to catch them: a hand-install that leaves the port's
//! download key in place, and an oracle that skips the walk restart
//! on the ports whose table it keeps (`apply_tables` restarts every
//! walk, lazily, by bumping the fabric's download epoch).

use iba_core::{ArbEntry, SlTable, SplitMix64};
use iba_obs::NullRecorder;
use iba_qos::service::apply_trace_sequential;
use iba_qos::{ConnectionId, LowPriorityPolicy, PortKey, QosManager, RejectReason, TraceOp};
use iba_sim::{DeliveryRecord, Fabric, FaultAction, Observer, SimConfig};
use iba_topo::{irregular, updown};
use iba_traffic::besteffort::{background_flows, BackgroundConfig};
use iba_traffic::{flow_for_connection, RequestGenerator, WorkloadConfig};

const SEEDS: u64 = 12;
const STEPS: usize = 160;
/// Simulated cycles between two steps.
const CYCLES_PER_STEP: u64 = 1_500;

/// The download `apply_tables` replaced, kept as the oracle: compare
/// every wired port's installed table with the manager's, recompile it
/// if it differs, restart its walk eagerly if not (unless the negative
/// control skips that).
fn download_comparing_everything(mgr: &QosManager, fabric: &mut Fabric, oracle: Oracle) {
    for key in mgr.output_ports() {
        let want = mgr.arb_config_for(key);
        if fabric.output_table(key.node, key.port) == Some(&want) {
            if oracle == Oracle::Restarts {
                fabric.restart_output_walk(key.node, key.port);
            }
        } else {
            fabric.set_output_table(key.node, key.port, want);
        }
    }
}

/// What the oracle does with a port whose table it keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Oracle {
    /// Restarts the port's walk, as a recompile of that table would.
    Restarts,
    /// The negative control: leaves the walk where it was.
    SkipsRestart,
}

/// How a hand-installed table reaches the stamp-tracked fabric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Writer {
    /// `set_output_table`, which forgets the port's download key.
    Honest,
    /// The negative control: installs the table, then puts the port's
    /// old download key back.
    KeepsKey,
}

/// FNV-1a over every delivery's `(flow, seq, delivered)`.
struct Digest(u64, u64);

impl Observer for Digest {
    fn on_delivered(&mut self, r: &DeliveryRecord) {
        for v in [u64::from(r.flow), r.seq, r.delivered] {
            for b in v.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        self.1 += 1;
    }
}

/// The fabric downloaded with stamps and the one downloaded by the
/// oracle, with their delivery digests.
struct Rig {
    stamped: Fabric,
    oracle: Fabric,
    digests: [Digest; 2],
    writer: Writer,
    oracle_kind: Oracle,
}

impl Rig {
    fn both(&mut self, mut f: impl FnMut(&mut Fabric)) {
        f(&mut self.stamped);
        f(&mut self.oracle);
    }

    fn run(&mut self, cycles: u64) {
        let [a, b] = &mut self.digests;
        let until = self.stamped.now() + cycles;
        self.stamped.run_until(until, a);
        self.oracle.run_until(until, b);
    }

    /// Downloads `mgr` into both fabrics and checks the differential.
    /// Returns how many schedules the download compiled.
    fn download(&mut self, mgr: &QosManager, step: usize) -> Result<u64, String> {
        let before = self.stamped.schedule_compiles();
        mgr.apply_tables(&mut self.stamped);
        download_comparing_everything(mgr, &mut self.oracle, self.oracle_kind);
        for key in mgr.output_ports() {
            let want = mgr.arb_config_for(key);
            if self.stamped.output_table(key.node, key.port) != Some(&want) {
                return Err(format!("step {step}: {key:?} does not hold arb_config_for"));
            }
            if self.oracle.output_table(key.node, key.port) != Some(&want) {
                return Err(format!("step {step}: the oracle left {key:?} stale"));
            }
        }
        let (got, want) = (
            self.stamped.schedule_compiles(),
            self.oracle.schedule_compiles(),
        );
        if got != want {
            return Err(format!("step {step}: {got} compiles, the oracle {want}"));
        }
        Ok(got - before)
    }

    /// Installs `cfg` on one port of both fabrics behind the managers'
    /// backs.
    fn hand_install(&mut self, key: PortKey, cfg: &iba_core::VlArbConfig) {
        let kept = self.stamped.download_key(key.node, key.port);
        self.both(|f| f.set_output_table(key.node, key.port, cfg.clone()));
        if let (Writer::KeepsKey, Some(k)) = (self.writer, kept) {
            self.stamped.record_download(key.node, key.port, k);
        }
    }

    fn check_deliveries(&self, step: usize) -> Result<(), String> {
        let [a, b] = &self.digests;
        if (a.0, a.1) != (b.0, b.1) {
            return Err(format!(
                "step {step}: deliveries diverged ({} vs {} packets)",
                a.1, b.1
            ));
        }
        Ok(())
    }
}

/// How often each kind of step ran, and what the downloads did.
#[derive(Default, Debug)]
struct Coverage {
    admits: usize,
    rollbacks: usize,
    teardowns: usize,
    repairs: usize,
    faults: usize,
    hand_installs: usize,
    uniform: usize,
    policy: usize,
    clone_switches: usize,
    recompiling_downloads: usize,
    shared_stamps: usize,
    delivered: usize,
}

impl Coverage {
    fn counts(&self) -> [usize; 12] {
        [
            self.admits,
            self.rollbacks,
            self.teardowns,
            self.repairs,
            self.faults,
            self.hand_installs,
            self.uniform,
            self.policy,
            self.clone_switches,
            self.recompiling_downloads,
            self.shared_stamps,
            self.delivered,
        ]
    }
}

/// Runs one seeded sequence; `Err` names the first divergence.
fn differential(seed: u64, writer: Writer, oracle: Oracle) -> Result<Coverage, String> {
    let topo = irregular::generate(irregular::IrregularConfig::with_switches(4, seed));
    let routing = updown::compute(&topo);
    let base = QosManager::new(topo.clone(), routing.clone(), SlTable::paper_table1());
    let fabric = || Fabric::new(topo.clone(), routing.clone(), SimConfig::paper_default(256));
    let mut rig = Rig {
        stamped: fabric(),
        oracle: fabric(),
        digests: [
            Digest(0xcbf2_9ce4_8422_2325, 0),
            Digest(0xcbf2_9ce4_8422_2325, 0),
        ],
        writer,
        oracle_kind: oracle,
    };
    let mut gen = RequestGenerator::new(
        &topo,
        base.sl_table(),
        &WorkloadConfig::new(256, seed ^ 0x5EED),
    );
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xD0_57A3);
    let mut cov = Coverage::default();

    // Two clones of one manager, each with its live connections. They
    // share every table stamp until one of them mutates a table.
    let mut managers = [base.clone(), base];
    let mut live: [Vec<ConnectionId>; 2] = [Vec::new(), Vec::new()];
    let mut active = 0;
    // Fill to saturation, so later requests also fail mid-path. The
    // first admissions' flows and best-effort background give the walk
    // state contended traffic to act on.
    let background = background_flows(&topo, &BackgroundConfig::default(), 1_000_000);
    rig.both(|f| background.iter().for_each(|flow| f.add_flow(flow.clone())));
    let mut rejected_in_a_row = 0;
    while rejected_in_a_row < 20 {
        let req = gen.next_request();
        match managers[0].request(&req) {
            Ok(id) => {
                rejected_in_a_row = 0;
                if live[0].len() < 24 {
                    rig.both(|f| f.add_flow(flow_for_connection(&req, 0)));
                }
                live[0].push(id);
            }
            Err(_) => rejected_in_a_row += 1,
        }
    }
    managers[1] = managers[0].clone();
    live[1] = live[0].clone();
    rig.download(&managers[0], 0)?;

    let ports: Vec<PortKey> = managers[0].output_ports().collect();
    let mut alternate_low = LowPriorityPolicy::default();
    alternate_low.entries.push(ArbEntry {
        vl: iba_core::VirtualLane::data(14),
        weight: 7,
    });
    for step in 1..=STEPS {
        let mgr = &mut managers[active];
        match rng.gen_range(0u32..100) {
            0..=39 => {
                let req = gen.next_request();
                match mgr.request(&req) {
                    Ok(id) => {
                        cov.admits += 1;
                        live[active].push(id);
                    }
                    Err(RejectReason::NoFreeSequence(at) | RejectReason::CapacityExceeded(at)) => {
                        // A hop past the first failed: earlier hops were
                        // reserved and rolled back.
                        let path = mgr.path_ports(req.src, req.dst);
                        cov.rollbacks += usize::from(path.first() != Some(&at));
                    }
                    Err(_) => {}
                }
            }
            40..=59 if !live[active].is_empty() => {
                let i = rng.gen_range(0..live[active].len());
                let id = live[active].swap_remove(i);
                assert!(mgr.teardown(id), "a live connection tears down");
                cov.teardowns += 1;
            }
            60..=64 => {
                cov.repairs += 1;
                let repair_seed = rng.next_u64();
                if repair_seed.is_multiple_of(2) {
                    mgr.corrupt_tables(repair_seed);
                    mgr.repair_tables(&mut NullRecorder);
                } else {
                    let op = TraceOp::Repair { seed: repair_seed };
                    apply_trace_sequential(mgr, &[op], &mut NullRecorder);
                }
                // Repair keeps every connection it does not lose.
                live[active].retain(|&id| mgr.connection(id).is_some());
            }
            65..=72 => {
                cov.faults += 1;
                let key = *rng.choose(&ports).expect("wired ports");
                let action = FaultAction::CorruptTable {
                    node: key.node,
                    port: key.port,
                    seed: rng.next_u64(),
                };
                rig.both(|f| f.schedule_fault(f.now(), action));
                rig.run(1);
            }
            73..=80 => {
                cov.hand_installs += 1;
                let key = *rng.choose(&ports).expect("wired ports");
                rig.hand_install(key, &Fabric::default_arb_config());
            }
            81..=82 => {
                cov.uniform += 1;
                rig.both(|f| f.set_uniform_tables(&Fabric::default_arb_config()));
            }
            83..=84 => {
                cov.policy += 1;
                let policy = if rng.gen_range(0u32..2) == 0 {
                    alternate_low.clone()
                } else {
                    LowPriorityPolicy::default()
                };
                mgr.set_low_priority_policy(policy);
            }
            _ => {
                cov.clone_switches += 1;
                active = 1 - active;
            }
        }
        if rig.download(&managers[active], step)? > 0 {
            cov.recompiling_downloads += 1;
        }
        // Nothing changed since: a second download compiles nothing.
        if rig.download(&managers[active], step)? > 0 {
            return Err(format!("step {step}: a download with no change recompiled"));
        }
        rig.run(CYCLES_PER_STEP);
        rig.check_deliveries(step)?;

        // Equal stamps mean equal tables, across the two clones too.
        let [a, b] = &managers;
        for key in &ports {
            let stamp = a.port_tables().stamp(*key);
            if stamp.is_some() && stamp == b.port_tables().stamp(*key) {
                cov.shared_stamps += 1;
                assert_eq!(
                    format!("{:?}", a.port_tables().table(*key)),
                    format!("{:?}", b.port_tables().table(*key)),
                    "seed {seed}: {key:?} has one stamp for two tables"
                );
            }
        }
    }
    cov.delivered = rig.digests[0].1 as usize;
    // The drain oracle: tearing down every handle empties every table.
    for (mgr, live) in managers.iter_mut().zip(&live) {
        for &id in live {
            assert!(
                mgr.teardown(id),
                "seed {seed}: a live connection tears down"
            );
        }
        assert_eq!(
            mgr.live_connections(),
            0,
            "seed {seed}: a handle went missing"
        );
        if let Some((key, _)) = mgr
            .port_tables()
            .tables()
            .find(|(_, t)| t.occupancy() != 0 || t.reserved_weight() != 0)
        {
            return Err(format!("drain: {key:?} is not empty"));
        }
    }
    Ok(cov)
}

#[test]
fn stamped_download_matches_the_compare_everything_oracle() {
    let mut total = [0; 12];
    for seed in 0..SEEDS {
        let cov = differential(seed, Writer::Honest, Oracle::Restarts)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (t, n) in total.iter_mut().zip(cov.counts()) {
            *t += n;
        }
    }
    assert!(
        total.iter().all(|&n| n >= 5),
        "every kind of step ran (admits, rollbacks, teardowns, repairs, faults, \
         hand-installs, uniform tables, policy changes, clone switches, \
         recompiling downloads, shared stamps, delivered packets): {total:?}"
    );
}

/// A writer that leaves the port's key in place must make the
/// differential fail: the stamped download then skips a port whose
/// table it no longer holds.
#[test]
fn a_writer_that_keeps_the_download_key_is_caught() {
    let mut caught = 0;
    for seed in 0..SEEDS {
        match differential(seed, Writer::KeepsKey, Oracle::Restarts) {
            Ok(_) => {}
            Err(e) => {
                assert!(
                    e.contains("does not hold arb_config_for"),
                    "seed {seed}: {e}"
                );
                caught += 1;
            }
        }
    }
    assert_eq!(caught, SEEDS, "every seed hand-installs a table");
}

/// An oracle that forgets to restart the walks of the ports it keeps
/// must diverge from `apply_tables`: the differential sees a download
/// that leaves a walk mid-table. A seed whose kept ports are all idle
/// or freshly restarted when a download skips them cannot tell; 8 of
/// the 12 seeds catch it, seed 0 at its second step.
#[test]
fn an_oracle_that_skips_the_walk_restart_is_caught() {
    let mut caught = 0;
    for seed in 0..SEEDS {
        if let Err(e) = differential(seed, Writer::Honest, Oracle::SkipsRestart) {
            assert!(e.contains("deliveries diverged"), "seed {seed}: {e}");
            caught += 1;
        }
    }
    assert!(
        caught >= SEEDS / 2,
        "only {caught} of {SEEDS} seeds catch it"
    );
}

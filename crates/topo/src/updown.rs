//! Up*/down* routing: the classic deadlock-free routing for irregular
//! networks.
//!
//! A BFS spanning tree from a root switch assigns each switch a level;
//! every link gets an "up" direction (towards the root: lower level, or
//! equal level and lower id). A legal route crosses zero or more links
//! in the up direction followed by zero or more in the down direction —
//! never up after down — which breaks every cycle in the channel
//! dependency graph and hence guarantees deadlock freedom.
//!
//! The [`RoutingTable`] holds, for every `(switch, destination host)`,
//! the output port of a *shortest legal* path (deterministic routing, as
//! in the paper's switch model).

use crate::graph::{HostId, PortPeer, SwitchId, Topology};
use std::collections::VecDeque;

/// Per-switch forwarding tables: `port = table[switch][destination]`.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    /// Hosts in the fabric: the stride of the two tables below.
    hosts: usize,
    /// `ports[s * hosts + h]` = output port on switch `s` towards host
    /// `h`.
    ports: Vec<u8>,
    /// `next[s * hosts + h]` = the switch that port leads to, or
    /// [`NO_SWITCH`] when it faces a host or a free port.
    next: Vec<u16>,
    /// `levels[s]` = BFS tree level of switch `s` (root = 0).
    levels: Vec<u32>,
    root: SwitchId,
}

/// A `next` entry whose port leads to no switch.
const NO_SWITCH: u16 = u16::MAX;

impl RoutingTable {
    /// The output port switch `s` forwards packets for host `dest` on.
    #[must_use]
    pub fn port(&self, switch: SwitchId, dest: HostId) -> u8 {
        self.ports[switch.index() * self.hosts + dest.index()]
    }

    /// The BFS level of a switch (root = 0).
    #[must_use]
    pub fn level(&self, switch: SwitchId) -> u32 {
        self.levels[switch.index()]
    }

    /// The root switch of the spanning tree.
    #[must_use]
    pub fn root(&self) -> SwitchId {
        self.root
    }

    /// Sets the port switch `s` forwards `dest`'s packets on, and the
    /// switch that port leads to on `topo`.
    fn set_port(&mut self, topo: &Topology, switch: SwitchId, dest: HostId, port: u8) {
        let at = switch.index() * self.hosts + dest.index();
        self.ports[at] = port;
        self.next[at] = match topo.peer(switch, port) {
            PortPeer::Switch { switch, .. } => switch.0,
            _ => NO_SWITCH,
        };
    }

    /// Walks the route from `src`'s switch to `dest`'s switch, calling
    /// `hop(switch, port)` for every switch on it with the output port
    /// the table forwards on (the last one faces `dest`). Returns
    /// `false`, possibly after some hops, when the table forwards into
    /// a host or free port before `dest`'s switch, or loops (cannot
    /// happen for a table [`compute`] built). Each hop is one read of
    /// the port and next-switch tables.
    pub fn for_each_hop(
        &self,
        topo: &Topology,
        src: HostId,
        dest: HostId,
        mut hop: impl FnMut(SwitchId, u8),
    ) -> bool {
        let target = topo.host_switch(dest);
        let mut s = topo.host_switch(src);
        // A loop-free route visits each switch at most once.
        for _ in 0..self.levels.len() {
            let at = s.index() * self.hosts + dest.index();
            hop(s, self.ports[at]);
            if s == target {
                return true;
            }
            match self.next[at] {
                NO_SWITCH => return false,
                n => s = SwitchId(n),
            }
        }
        false
    }

    /// Number of switch-to-switch hops from `src` host's switch to
    /// `dest` host's switch, plus the two host links: the path length in
    /// links. Returns `None` for unreachable pairs (cannot happen on
    /// connected fabrics).
    #[must_use]
    pub fn path_hops(&self, topo: &Topology, src: HostId, dest: HostId) -> Option<usize> {
        let mut hops = 0;
        self.for_each_hop(topo, src, dest, |_, _| hops += 1)
            .then_some(hops)
    }

    /// The full switch path (excluding host links) from `src` to `dest`.
    #[must_use]
    pub fn switch_path(&self, topo: &Topology, src: HostId, dest: HostId) -> Option<Vec<SwitchId>> {
        let mut path = Vec::new();
        self.for_each_hop(topo, src, dest, |s, _| path.push(s))
            .then_some(path)
    }
}

/// Direction of a switch-to-switch hop under the tree levelling.
fn is_up(levels: &[u32], from: SwitchId, to: SwitchId) -> bool {
    // Up = towards the root: strictly lower level, or equal level and
    // lower switch id (the standard total-order tie-break).
    (levels[to.index()], to.index()) < (levels[from.index()], from.index())
}

/// Computes up*/down* forwarding tables over a connected topology.
///
/// The root is the switch of maximum connectivity (ties to the lowest
/// id), which keeps tree depth small. For each destination, a reverse
/// BFS over the two-phase state graph `(switch, may-still-go-up)` finds
/// shortest *legal* distances; each switch then forwards over the first
/// port (lowest number) leading to a neighbour on such a path.
#[must_use]
pub fn compute(topo: &Topology) -> RoutingTable {
    let n = topo.num_switches();
    assert!(
        n < usize::from(NO_SWITCH),
        "switch ids stay below the next-switch sentinel"
    );
    let root = topo
        .switch_ids()
        .max_by_key(|&s| (topo.switch_links(s).count(), std::cmp::Reverse(s.index())))
        .expect("at least one switch");

    // BFS levels from the root.
    let mut levels = vec![u32::MAX; n];
    levels[root.index()] = 0;
    let mut queue = VecDeque::from([root]);
    while let Some(s) = queue.pop_front() {
        for (_, peer, _) in topo.switch_links(s) {
            if levels[peer.index()] == u32::MAX {
                levels[peer.index()] = levels[s.index()] + 1;
                queue.push_back(peer);
            }
        }
    }
    assert!(
        levels.iter().all(|&l| l != u32::MAX),
        "topology must be connected"
    );

    let mut table = RoutingTable {
        hosts: topo.num_hosts(),
        ports: vec![0; n * topo.num_hosts()],
        next: vec![NO_SWITCH; n * topo.num_hosts()],
        levels: Vec::new(),
        root,
    };

    for dest in topo.host_ids() {
        let target = topo.host_switch(dest);
        // dist[s][phase]: shortest legal distance from s to target when
        // the path may still go up (phase 0) or is committed to going
        // down (phase 1). Legal forward transitions:
        //   (s, up-phase)  --up-->   (t, up-phase)
        //   (s, up-phase)  --down--> (t, down-phase)
        //   (s, down-phase)--down--> (t, down-phase)
        // We BFS backwards from the target (distance 0 in both phases).
        const INF: u32 = u32::MAX;
        let mut dist = vec![[INF; 2]; n];
        dist[target.index()] = [0, 0];
        let mut queue = VecDeque::from([(target, 0usize), (target, 1usize)]);
        while let Some((t, phase)) = queue.pop_front() {
            let d = dist[t.index()][phase];
            for (_, s, _) in topo.switch_links(t) {
                // Hop s -> t. Which predecessor states can use it?
                let hop_up = is_up(&levels, s, t);
                let preds: &[usize] = if hop_up {
                    // An up hop keeps the up phase and requires the
                    // successor state to still be in the up phase.
                    if phase == 0 {
                        &[0]
                    } else {
                        &[]
                    }
                } else {
                    // A down hop: predecessor in up phase (first down)
                    // or already in down phase — successor state must be
                    // the down phase.
                    if phase == 1 {
                        &[0, 1]
                    } else {
                        &[]
                    }
                };
                for &p in preds {
                    if dist[s.index()][p] == INF {
                        dist[s.index()][p] = d + 1;
                        queue.push_back((s, p));
                    }
                }
            }
        }

        for s in topo.switch_ids() {
            if s == target {
                let (port, _) = topo
                    .switch_hosts(s)
                    .find(|&(_, h)| h == dest)
                    .expect("dest host on its switch");
                table.set_port(topo, s, dest, port);
                continue;
            }
            // Destination-based tables cannot carry the up/down phase,
            // so per-switch choices must compose into legal paths on
            // their own. The consistent rule is **down-preference**:
            //
            // * if the destination is reachable from here going only
            //   down (`dist[s][1]` finite), take the shortest such down
            //   hop — every switch it leads to also has a finite
            //   down-only distance, so the suffix stays down;
            // * otherwise take the shortest legal up hop.
            //
            // A packet that has already descended only ever visits
            // switches with finite down-only distance, so it never turns
            // back up: the composed route is always up* then down*.
            assert!(
                dist[s.index()][0] != INF,
                "up*/down* must reach every destination on a connected fabric"
            );
            let down_distance = dist[s.index()][1];
            let mut chosen = None;
            for (port, t, _) in topo.switch_links(s) {
                let hop_up = is_up(&levels, s, t);
                let good = if down_distance != INF {
                    !hop_up && dist[t.index()][1] != INF && dist[t.index()][1] + 1 == down_distance
                } else {
                    hop_up
                        && dist[t.index()][0] != INF
                        && dist[t.index()][0] + 1 == dist[s.index()][0]
                };
                if good {
                    chosen = Some(port);
                    break;
                }
            }
            let port = chosen.expect("some neighbour lies on a legal path");
            table.set_port(topo, s, dest, port);
        }
    }
    table.levels = levels;
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irregular::{generate, IrregularConfig};

    fn line3() -> Topology {
        // S0 - S1 - S2, one host each.
        let mut t = Topology::new(3, 4);
        t.connect_switches(SwitchId(0), 2, SwitchId(1), 2);
        t.connect_switches(SwitchId(1), 3, SwitchId(2), 2);
        t.attach_host(SwitchId(0), 0);
        t.attach_host(SwitchId(1), 0);
        t.attach_host(SwitchId(2), 0);
        t
    }

    #[test]
    fn line_routes_straight() {
        let t = line3();
        let r = compute(&t);
        // Root is S1 (2 links).
        assert_eq!(r.root(), SwitchId(1));
        assert_eq!(r.level(SwitchId(1)), 0);
        assert_eq!(r.level(SwitchId(0)), 1);
        // H0 (on S0) -> H2 (on S2): S0 out port 2 (to S1), S1 out port 3
        // (to S2), S2 out port 0 (host).
        assert_eq!(r.port(SwitchId(0), HostId(2)), 2);
        assert_eq!(r.port(SwitchId(1), HostId(2)), 3);
        assert_eq!(r.port(SwitchId(2), HostId(2)), 0);
        assert_eq!(r.path_hops(&t, HostId(0), HostId(2)), Some(3));
        assert_eq!(
            r.switch_path(&t, HostId(0), HostId(2)).unwrap(),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)]
        );
    }

    #[test]
    fn local_delivery_uses_host_port() {
        let t = line3();
        let r = compute(&t);
        assert_eq!(r.port(SwitchId(0), HostId(0)), 0);
        assert_eq!(r.path_hops(&t, HostId(0), HostId(0)), Some(1));
    }

    #[test]
    fn all_pairs_reachable_on_random_fabrics() {
        for seed in 0..8 {
            let t = generate(IrregularConfig::paper_default(seed));
            let r = compute(&t);
            for src in t.host_ids() {
                for dest in t.host_ids() {
                    let hops = r.path_hops(&t, src, dest);
                    assert!(hops.is_some(), "no route {src}->{dest} (seed {seed})");
                    assert!(hops.unwrap() <= t.num_switches() + 1);
                }
            }
        }
    }

    #[test]
    fn routes_are_legal_up_down() {
        for seed in 0..8 {
            let t = generate(IrregularConfig::paper_default(seed));
            let r = compute(&t);
            for src in t.host_ids() {
                for dest in t.host_ids() {
                    let path = r.switch_path(&t, src, dest).unwrap();
                    let mut gone_down = false;
                    for w in path.windows(2) {
                        let up = super::is_up(
                            &(0..t.num_switches())
                                .map(|i| r.level(SwitchId(i as u16)))
                                .collect::<Vec<_>>(),
                            w[0],
                            w[1],
                        );
                        if up {
                            assert!(!gone_down, "up after down {src}->{dest} seed {seed}");
                        } else {
                            gone_down = true;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn routes_are_shortest_legal() {
        // On the 3-switch line every route is also globally shortest.
        let t = line3();
        let r = compute(&t);
        assert_eq!(r.path_hops(&t, HostId(0), HostId(1)), Some(2));
        assert_eq!(r.path_hops(&t, HostId(1), HostId(2)), Some(2));
    }

    #[test]
    fn looping_or_dead_end_tables_have_no_route() {
        let t = line3();
        let mut r = compute(&t);
        // S1 sends H2's traffic back to S0: a loop.
        let (s0, s1, h2) = (SwitchId(0), SwitchId(1), HostId(2));
        r.set_port(&t, s1, h2, r.port(s1, HostId(0)));
        r.set_port(&t, s0, h2, r.port(s0, HostId(1)));
        assert_eq!(r.switch_path(&t, HostId(0), h2), None);
        assert_eq!(r.path_hops(&t, HostId(0), h2), None);
        assert_eq!(peer_chase(&r, &t, HostId(0), h2), None);
        // S0 sends H2's traffic to its own host: a dead end.
        r.set_port(&t, s0, h2, r.port(s0, HostId(0)));
        assert_eq!(peer_chase(&r, &t, HostId(0), h2), None);
        assert!(!r.for_each_hop(&t, HostId(0), HostId(2), |_, _| {}));
        assert_eq!(r.switch_path(&t, HostId(0), HostId(2)), None);
    }

    /// The walk the next-switch table replaced: each hop's port read
    /// from the table, the next switch from `Topology::peer`. Returns
    /// the hops, or `None` for a dead end or a loop.
    fn peer_chase(
        r: &RoutingTable,
        topo: &Topology,
        src: HostId,
        dest: HostId,
    ) -> Option<Vec<(SwitchId, u8)>> {
        let target = topo.host_switch(dest);
        let mut s = topo.host_switch(src);
        let mut hops = Vec::new();
        for _ in 0..topo.num_switches() {
            let port = r.port(s, dest);
            hops.push((s, port));
            if s == target {
                return Some(hops);
            }
            match topo.peer(s, port) {
                PortPeer::Switch { switch, .. } => s = switch,
                _ => return None,
            }
        }
        None
    }

    #[test]
    fn flat_walk_equals_the_peer_chase_on_the_paper_fabric() {
        for instance in [42, 7] {
            let t = generate(IrregularConfig::paper_default(instance));
            assert_eq!(t.num_switches(), 16);
            let r = compute(&t);
            for src in t.host_ids() {
                for dest in t.host_ids() {
                    let mut hops = Vec::new();
                    let routed = r.for_each_hop(&t, src, dest, |s, p| hops.push((s, p)));
                    assert!(routed, "instance {instance}: {src} -> {dest}");
                    assert_eq!(
                        Some(hops),
                        peer_chase(&r, &t, src, dest),
                        "instance {instance}: {src} -> {dest}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_switch_fabric() {
        let mut t = Topology::new(1, 4);
        t.attach_host(SwitchId(0), 0);
        t.attach_host(SwitchId(0), 1);
        let r = compute(&t);
        assert_eq!(r.port(SwitchId(0), HostId(0)), 0);
        assert_eq!(r.port(SwitchId(0), HostId(1)), 1);
    }
}

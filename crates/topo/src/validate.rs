//! Fabric validation: routing completeness and deadlock freedom.
//!
//! Deadlock freedom is certified the classic way: build the **channel
//! dependency graph** (one node per directed switch-to-switch link, one
//! edge whenever some route enters a switch on one link and leaves on
//! another) and check it is acyclic. Up*/down* routing guarantees this
//! by construction; the checker makes the guarantee testable for any
//! routing table.

use crate::graph::{PortPeer, SwitchId, Topology};
use crate::updown::RoutingTable;

/// A directed channel: the link out of `switch` through `port`.
#[derive(Clone, Copy, Debug)]
struct Channel {
    switch: u16,
    port: u8,
}

/// The dense index of the channel out of `switch` through `port`:
/// channels sort by `(switch, port)`.
fn channel_slot(topo: &Topology, switch: SwitchId, port: u8) -> usize {
    switch.index() * usize::from(topo.ports_per_switch()) + usize::from(port)
}

/// Structural invariant of every generated fabric: internally
/// consistent wiring (symmetric links, no dangling ports) and a single
/// connected component. Both generators assert this on their output;
/// the verification crate and property tests call it directly.
pub fn check_well_formed(topo: &Topology) -> Result<(), String> {
    topo.check_integrity()?;
    if !topo.is_connected() {
        return Err("topology is not connected".to_string());
    }
    Ok(())
}

/// Builds the channel dependency graph induced by `routing` and checks
/// it for cycles. Returns `Ok(())` when deadlock-free, or a description
/// of a cyclic dependency.
pub fn check_deadlock_freedom(topo: &Topology, routing: &RoutingTable) -> Result<(), String> {
    // Enumerate channels and dependencies; `index[channel_slot(..)]`
    // is a channel's node in the graph.
    let slots = topo.num_switches() * usize::from(topo.ports_per_switch());
    let mut index = vec![usize::MAX; slots];
    let mut channels: Vec<Channel> = Vec::new();
    for s in topo.switch_ids() {
        for (p, _, _) in topo.switch_links(s) {
            index[channel_slot(topo, s, p)] = channels.len();
            channels.push(Channel {
                switch: s.0,
                port: p,
            });
        }
    }
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); channels.len()];

    for dest in topo.host_ids() {
        for src in topo.host_ids() {
            let Some(path) = routing.switch_path(topo, src, dest) else {
                return Err(format!("no route {src}->{dest}"));
            };
            // Convert the switch path to the sequence of output channels.
            let mut prev: Option<usize> = None;
            for (i, &s) in path.iter().enumerate() {
                if i + 1 == path.len() {
                    break; // last hop exits to the host, no channel
                }
                let port = routing.port(s, dest);
                let c = index[channel_slot(topo, s, port)];
                if let Some(p) = prev {
                    if !deps[p].contains(&c) {
                        deps[p].push(c);
                    }
                }
                prev = Some(c);
            }
        }
    }

    // Cycle check via iterative three-colour DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::White; channels.len()];
    for start in 0..channels.len() {
        if colour[start] != Colour::White {
            continue;
        }
        // Stack of (node, next-child-index).
        let mut stack = vec![(start, 0usize)];
        colour[start] = Colour::Grey;
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            if *child < deps[node].len() {
                let next = deps[node][*child];
                *child += 1;
                match colour[next] {
                    Colour::White => {
                        colour[next] = Colour::Grey;
                        stack.push((next, 0));
                    }
                    Colour::Grey => {
                        let c = channels[next];
                        return Err(format!(
                            "cyclic channel dependency through S{} port {}",
                            c.switch, c.port
                        ));
                    }
                    Colour::Black => {}
                }
            } else {
                colour[node] = Colour::Black;
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Checks that every (src, dest) pair routes to the correct host port
/// without loops.
pub fn check_routing_completeness(topo: &Topology, routing: &RoutingTable) -> Result<(), String> {
    for src in topo.host_ids() {
        for dest in topo.host_ids() {
            let Some(path) = routing.switch_path(topo, src, dest) else {
                return Err(format!("route {src}->{dest} loops or dead-ends"));
            };
            let last = *path.last().unwrap();
            if last != topo.host_switch(dest) {
                return Err(format!("route {src}->{dest} ends at wrong switch {last}"));
            }
            let exit = routing.port(last, dest);
            if topo.peer(last, exit) != PortPeer::Host(dest) {
                return Err(format!("route {src}->{dest} exits wrong port {exit}"));
            }
        }
    }
    Ok(())
}

/// Mean switch-path length (in switch hops) over all distinct host pairs
/// — a quick topology quality metric used in reports.
#[must_use]
pub fn mean_path_switches(topo: &Topology, routing: &RoutingTable) -> f64 {
    let mut total = 0usize;
    let mut pairs = 0usize;
    for src in topo.host_ids() {
        for dest in topo.host_ids() {
            if src == dest {
                continue;
            }
            if let Some(p) = routing.switch_path(topo, src, dest) {
                total += p.len();
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        return 0.0;
    }
    total as f64 / pairs as f64
}

/// Convenience: the most loaded switch-to-switch output channel when
/// routing uniform all-to-all traffic (static analysis), as `(switch,
/// port, pairs routed through it)`. Ties go to the lowest `(switch,
/// port)`; `None` when no pair crosses a switch-to-switch link.
#[must_use]
pub fn hottest_channel(topo: &Topology, routing: &RoutingTable) -> Option<(SwitchId, u8, usize)> {
    let ports = usize::from(topo.ports_per_switch());
    let mut load = vec![0usize; topo.num_switches() * ports];
    for src in topo.host_ids() {
        for dest in topo.host_ids() {
            if src == dest {
                continue;
            }
            let path = routing.switch_path(topo, src, dest)?;
            for (i, &s) in path.iter().enumerate() {
                if i + 1 == path.len() {
                    break;
                }
                load[channel_slot(topo, s, routing.port(s, dest))] += 1;
            }
        }
    }
    // `max_by_key` keeps the last of equal maxima: scan in reverse so
    // the lowest slot wins a tie.
    let (slot, &pairs) = load.iter().enumerate().rev().max_by_key(|&(_, l)| l)?;
    (pairs > 0).then(|| (SwitchId((slot / ports) as u16), (slot % ports) as u8, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irregular::{generate, IrregularConfig};
    use crate::updown;

    #[test]
    fn random_fabrics_are_deadlock_free_and_complete() {
        for seed in 0..6 {
            let t = generate(IrregularConfig::paper_default(seed));
            let r = updown::compute(&t);
            check_routing_completeness(&t, &r).unwrap();
            check_deadlock_freedom(&t, &r).unwrap();
        }
    }

    #[test]
    fn sweep_sizes_deadlock_free() {
        for n in [2, 8, 32, 64] {
            let t = generate(IrregularConfig::with_switches(n, 3));
            let r = updown::compute(&t);
            check_deadlock_freedom(&t, &r).unwrap();
        }
    }

    #[test]
    fn mesh_is_deadlock_free() {
        let t = crate::regular::mesh2d(4, 4, 1);
        let r = updown::compute(&t);
        check_routing_completeness(&t, &r).unwrap();
        check_deadlock_freedom(&t, &r).unwrap();
    }

    #[test]
    fn metrics_sane() {
        let t = generate(IrregularConfig::paper_default(0));
        let r = updown::compute(&t);
        let mean = mean_path_switches(&t, &r);
        assert!(mean >= 1.0 && mean < t.num_switches() as f64);
        let hot = hottest_channel(&t, &r).unwrap();
        assert!(hot.2 > 0);
    }

    #[test]
    fn hottest_channel_breaks_ties_toward_the_lowest_switch_and_port() {
        // A line S0 - S1 - S2 with one host per switch: each of the four
        // switch-to-switch channels carries exactly two pairs. S0's link
        // sits on port 2, so the tie must go to (S0, 2), not to the first
        // link port of any switch.
        let mut t = crate::graph::Topology::new(3, 4);
        t.connect_switches(SwitchId(0), 2, SwitchId(1), 0);
        t.connect_switches(SwitchId(1), 1, SwitchId(2), 0);
        for s in 0..3 {
            t.attach_host(SwitchId(s), 3);
        }
        let r = updown::compute(&t);
        check_deadlock_freedom(&t, &r).unwrap();
        assert_eq!(hottest_channel(&t, &r), Some((SwitchId(0), 2, 2)));
    }
}

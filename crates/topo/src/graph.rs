//! Topology data model: switches with numbered ports, hosts attached to
//! switch ports, and bidirectional switch-to-switch links.

use std::fmt;

/// Identifier of a switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SwitchId(pub u16);

/// Identifier of a host (also its LID in the simulator).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u16);

impl SwitchId {
    /// Index form.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl HostId {
    /// Index form.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}", self.0)
    }
}

/// What a switch port is wired to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortPeer {
    /// A host channel adapter.
    Host(HostId),
    /// Another switch's port.
    Switch {
        /// Peer switch.
        switch: SwitchId,
        /// Peer port number on that switch.
        port: u8,
    },
    /// Nothing attached.
    Free,
}

/// A switch: a fixed array of ports.
#[derive(Clone, Debug)]
pub struct Switch {
    ports: Vec<PortPeer>,
}

impl Switch {
    /// The peers of all ports.
    #[must_use]
    pub fn ports(&self) -> &[PortPeer] {
        &self.ports
    }
}

/// A host and its attachment point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Host {
    /// Switch it hangs off.
    pub switch: SwitchId,
    /// Port number on that switch.
    pub port: u8,
}

/// A complete fabric topology.
///
/// Invariants (enforced by the builder methods):
/// * every switch has exactly `ports_per_switch` ports;
/// * switch-to-switch links are symmetric;
/// * every host is attached to exactly one switch port, and that port
///   points back at the host.
#[derive(Clone, Debug)]
pub struct Topology {
    switches: Vec<Switch>,
    hosts: Vec<Host>,
    ports_per_switch: u8,
}

impl Topology {
    /// An unwired fabric of `switches` switches with `ports_per_switch`
    /// ports each.
    #[must_use]
    pub fn new(switches: usize, ports_per_switch: u8) -> Self {
        assert!(switches > 0 && switches <= u16::MAX as usize);
        Topology {
            switches: vec![
                Switch {
                    ports: vec![PortPeer::Free; ports_per_switch as usize],
                };
                switches
            ],
            hosts: Vec::new(),
            ports_per_switch,
        }
    }

    /// Number of switches.
    #[must_use]
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    #[must_use]
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Ports per switch.
    #[must_use]
    pub fn ports_per_switch(&self) -> u8 {
        self.ports_per_switch
    }

    /// All switch ids.
    pub fn switch_ids(&self) -> impl Iterator<Item = SwitchId> {
        (0..self.switches.len() as u16).map(SwitchId)
    }

    /// All host ids.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> {
        (0..self.hosts.len() as u16).map(HostId)
    }

    /// The peer of a switch port.
    #[must_use]
    pub fn peer(&self, switch: SwitchId, port: u8) -> PortPeer {
        self.switches[switch.index()].ports[port as usize]
    }

    /// Host attachment info.
    #[must_use]
    pub fn host(&self, host: HostId) -> Host {
        self.hosts[host.index()]
    }

    /// The switch a host is attached to.
    #[must_use]
    pub fn host_switch(&self, host: HostId) -> SwitchId {
        self.hosts[host.index()].switch
    }

    /// A switch's ports wired to other switches, as
    /// `(local_port, peer_switch, peer_port)`.
    pub fn switch_links(&self, switch: SwitchId) -> impl Iterator<Item = (u8, SwitchId, u8)> + '_ {
        self.switches[switch.index()]
            .ports
            .iter()
            .enumerate()
            .filter_map(|(p, peer)| match *peer {
                PortPeer::Switch { switch: s, port } => Some((p as u8, s, port)),
                _ => None,
            })
    }

    /// A switch's host-attached ports, as `(local_port, host)`.
    pub fn switch_hosts(&self, switch: SwitchId) -> impl Iterator<Item = (u8, HostId)> + '_ {
        self.switches[switch.index()]
            .ports
            .iter()
            .enumerate()
            .filter_map(|(p, peer)| match *peer {
                PortPeer::Host(h) => Some((p as u8, h)),
                _ => None,
            })
    }

    /// The lowest-numbered free port of a switch, if any.
    #[must_use]
    pub fn free_port(&self, switch: SwitchId) -> Option<u8> {
        self.switches[switch.index()]
            .ports
            .iter()
            .position(|p| matches!(p, PortPeer::Free))
            .map(|p| p as u8)
    }

    /// Wires two free switch ports together. Panics if either port is
    /// taken or the link is a self-loop on the same port.
    pub fn connect_switches(&mut self, a: SwitchId, pa: u8, b: SwitchId, pb: u8) {
        assert!(!(a == b && pa == pb), "cannot wire a port to itself");
        assert!(
            matches!(self.peer(a, pa), PortPeer::Free),
            "{a} port {pa} is taken"
        );
        assert!(
            matches!(self.peer(b, pb), PortPeer::Free),
            "{b} port {pb} is taken"
        );
        self.switches[a.index()].ports[pa as usize] = PortPeer::Switch {
            switch: b,
            port: pb,
        };
        self.switches[b.index()].ports[pb as usize] = PortPeer::Switch {
            switch: a,
            port: pa,
        };
    }

    /// Attaches a new host to a free switch port; returns its id.
    pub fn attach_host(&mut self, switch: SwitchId, port: u8) -> HostId {
        assert!(
            matches!(self.peer(switch, port), PortPeer::Free),
            "{switch} port {port} is taken"
        );
        let id = HostId(self.hosts.len() as u16);
        self.switches[switch.index()].ports[port as usize] = PortPeer::Host(id);
        self.hosts.push(Host { switch, port });
        id
    }

    /// Whether the switch graph is connected (ignores hosts; a
    /// single-switch fabric is connected).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let n = self.num_switches();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(s) = stack.pop() {
            for (_, peer, _) in self.switch_links(SwitchId(s as u16)) {
                if !seen[peer.index()] {
                    seen[peer.index()] = true;
                    count += 1;
                    stack.push(peer.index());
                }
            }
        }
        count == n
    }

    /// Structural integrity check: link symmetry and host back-pointers.
    pub fn check_integrity(&self) -> Result<(), String> {
        for s in self.switch_ids() {
            for (p, peer) in self.switches[s.index()].ports.iter().enumerate() {
                match *peer {
                    PortPeer::Switch { switch, port } => {
                        let back = self.peer(switch, port);
                        if back
                            != (PortPeer::Switch {
                                switch: s,
                                port: p as u8,
                            })
                        {
                            return Err(format!("asymmetric link {s}:{p} -> {switch}:{port}"));
                        }
                    }
                    PortPeer::Host(h) => {
                        let host = self.hosts.get(h.index()).copied();
                        if host
                            != Some(Host {
                                switch: s,
                                port: p as u8,
                            })
                        {
                            return Err(format!("host {h} back-pointer broken at {s}:{p}"));
                        }
                    }
                    PortPeer::Free => {}
                }
            }
        }
        for (i, h) in self.hosts.iter().enumerate() {
            if self.peer(h.switch, h.port) != PortPeer::Host(HostId(i as u16)) {
                return Err(format!(
                    "host H{i} not present on {0}:{1}",
                    h.switch, h.port
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch() -> Topology {
        let mut t = Topology::new(2, 4);
        t.connect_switches(SwitchId(0), 0, SwitchId(1), 0);
        t.attach_host(SwitchId(0), 1);
        t.attach_host(SwitchId(1), 1);
        t
    }

    #[test]
    fn wiring_is_symmetric() {
        let t = two_switch();
        assert_eq!(
            t.peer(SwitchId(0), 0),
            PortPeer::Switch {
                switch: SwitchId(1),
                port: 0
            }
        );
        assert_eq!(
            t.peer(SwitchId(1), 0),
            PortPeer::Switch {
                switch: SwitchId(0),
                port: 0
            }
        );
        t.check_integrity().unwrap();
    }

    #[test]
    fn hosts_attach_and_enumerate() {
        let t = two_switch();
        assert_eq!(t.num_hosts(), 2);
        assert_eq!(t.host_switch(HostId(0)), SwitchId(0));
        assert_eq!(t.host_switch(HostId(1)), SwitchId(1));
        let hosts: Vec<_> = t.switch_hosts(SwitchId(0)).collect();
        assert_eq!(hosts, vec![(1, HostId(0))]);
    }

    #[test]
    fn connectivity_detection() {
        let t = two_switch();
        assert!(t.is_connected());
        let mut u = Topology::new(3, 4);
        u.connect_switches(SwitchId(0), 0, SwitchId(1), 0);
        assert!(!u.is_connected());
    }

    #[test]
    fn free_port_accounting() {
        let mut t = Topology::new(1, 4);
        assert_eq!(t.free_port(SwitchId(0)), Some(0));
        t.attach_host(SwitchId(0), 0);
        assert_eq!(t.free_port(SwitchId(0)), Some(1));
    }

    #[test]
    #[should_panic(expected = "is taken")]
    fn double_wiring_panics() {
        let mut t = two_switch();
        t.connect_switches(SwitchId(0), 0, SwitchId(1), 2);
    }

    #[test]
    #[should_panic(expected = "port to itself")]
    fn self_port_loop_panics() {
        let mut t = Topology::new(1, 4);
        t.connect_switches(SwitchId(0), 0, SwitchId(0), 0);
    }

    #[test]
    fn self_switch_loop_on_distinct_ports_allowed() {
        // Unusual but legal in hardware; routing simply never uses it.
        let mut t = Topology::new(1, 4);
        t.connect_switches(SwitchId(0), 0, SwitchId(0), 1);
        t.check_integrity().unwrap();
    }
}

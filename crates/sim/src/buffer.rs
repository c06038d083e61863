//! Switch VL buffers, host injection lanes, and credit accounting.
//!
//! Every packet buffered at a switch input lives in one
//! [`PacketPool`]: a [`Slab`] of reusable slots threaded by an
//! intrusive free list. A port's VL queues ([`VlQueueSet`]) are
//! intrusive singly-linked lists of slot indices, so pushing and
//! popping a packet is two or three index writes and **no allocation**
//! once the pool has warmed up to the fabric's peak switch-buffered
//! population, which credit flow control bounds.
//!
//! Hosts hold no packets. A host's injection lanes (`HostLanes`)
//! queue *runs*: consecutive packets of one flow, counted in one slot
//! of a shared `RunArena`. A packet's sequence number and creation
//! time follow from its flow's arrival process, so the fabric rebuilds
//! the packet when the lane grants it. An open-loop source that outruns
//! the fabric grows the count of its lane's tail run, not the arena.
//!
//! Slot placement is driven purely by push/pop order, which is itself
//! fully determined by the simulation's event order — pooling does not
//! perturb determinism.

use crate::packet::Packet;

/// Sentinel index: "no slot".
const NIL: u32 = u32::MAX;

struct Slot<T> {
    item: T,
    /// Next slot in whichever list (queue or free list) owns this slot.
    next: u32,
}

/// Reusable slots with an intrusive free list, shared by every queue
/// of one kind in a fabric.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    in_use: usize,
}

/// Backing storage of every switch-buffered packet of a fabric.
pub type PacketPool = Slab<Packet>;

/// Backing storage of every host lane's runs of a fabric.
pub(crate) type RunArena = Slab<Run>;

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NIL,
            in_use: 0,
        }
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Items currently held in queues.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Total slots ever allocated (the high-water mark of the live
    /// population).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn alloc(&mut self, item: T) -> u32 {
        self.in_use += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.item = item;
            slot.next = NIL;
            idx
        } else {
            assert!(
                self.slots.len() < NIL as usize,
                "slab exhausted the u32 index space"
            );
            self.slots.push(Slot { item, next: NIL });
            (self.slots.len() - 1) as u32
        }
    }

    #[inline]
    fn release(&mut self, idx: u32) {
        self.in_use -= 1;
        let slot = &mut self.slots[idx as usize];
        slot.next = self.free_head;
        self.free_head = idx;
    }
}

/// All 16 VL queues of one port in struct-of-arrays layout, plus an
/// occupancy bitmask.
///
/// Semantically this is sixteen byte-bounded FIFOs (the tests hold it
/// to a one-lane reference list, `VlBuffer`), but the hot path never asks
/// "what is the state of lane v" — it asks "which lanes have a head
/// packet". Keeping heads, tails, lengths and byte counts in parallel
/// arrays puts each question's answers on one or two cache lines, and
/// the `occupied` bitmask answers the candidate scan in a single
/// `trailing_zeros` loop over set bits instead of sixteen head probes
/// (see the compiled-arbitration section of `DESIGN.md`).
#[derive(Clone, Debug)]
pub struct VlQueueSet {
    /// Head slot index per lane (`NIL` when empty).
    head: [u32; 16],
    /// Tail slot index per lane (`NIL` when empty).
    tail: [u32; 16],
    /// Packets queued per lane.
    len: [u32; 16],
    /// Bytes queued per lane.
    used: [u64; 16],
    /// Wire size of the head packet per lane (valid only while the
    /// lane's `occupied` bit is set). The arbitration candidate scan
    /// reads this instead of dereferencing the pool slot — the cache is
    /// refreshed on the push/pop that changes a lane's head, which
    /// happens far less often than the scan runs.
    head_bytes: [u32; 16],
    /// Byte capacity shared by every lane.
    capacity: u64,
    /// Bit `v` set iff lane `v` holds at least one packet.
    occupied: u16,
}

impl VlQueueSet {
    /// Sixteen empty queues of `capacity` bytes each.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        VlQueueSet {
            head: [NIL; 16],
            tail: [NIL; 16],
            len: [0; 16],
            used: [0; 16],
            head_bytes: [0; 16],
            capacity,
            occupied: 0,
        }
    }

    /// Bitmask of lanes holding at least one packet (bit `v` = VL v).
    #[must_use]
    #[inline]
    pub fn occupied(&self) -> u16 {
        self.occupied
    }

    /// Packets queued on lane `vl`.
    #[must_use]
    #[inline]
    pub fn len(&self, vl: usize) -> usize {
        self.len[vl] as usize
    }

    /// Bytes queued over all lanes.
    #[must_use]
    pub fn total_used(&self) -> u64 {
        self.used.iter().sum()
    }

    /// Whether `bytes` more would fit on lane `vl`.
    #[must_use]
    #[inline]
    pub fn fits(&self, vl: usize, bytes: u64) -> bool {
        self.used[vl].saturating_add(bytes) <= self.capacity
    }

    /// Wire size of the head packet of lane `vl`. Only meaningful while
    /// the lane's [`VlQueueSet::occupied`] bit is set.
    #[must_use]
    #[inline]
    pub fn head_bytes(&self, vl: usize) -> u32 {
        self.head_bytes[vl]
    }

    /// The head packet of lane `vl`, if any.
    #[must_use]
    #[inline]
    pub fn head<'p>(&self, pool: &'p PacketPool, vl: usize) -> Option<&'p Packet> {
        if self.head[vl] == NIL {
            None
        } else {
            Some(&pool.slots[self.head[vl] as usize].item)
        }
    }

    /// Appends a packet to lane `vl`. Panics on overflow — the sender
    /// must have held credits, so an overflow is a flow-control bug.
    #[inline]
    pub fn push(&mut self, pool: &mut PacketPool, vl: usize, p: Packet) {
        assert!(
            self.fits(vl, u64::from(p.bytes)),
            "VL buffer overflow: flow control violated"
        );
        self.used[vl] += u64::from(p.bytes);
        self.len[vl] += 1;
        self.occupied |= 1 << vl;
        let bytes = p.bytes;
        let idx = pool.alloc(p);
        if self.tail[vl] == NIL {
            self.head[vl] = idx;
            self.head_bytes[vl] = bytes;
        } else {
            pool.slots[self.tail[vl] as usize].next = idx;
        }
        self.tail[vl] = idx;
    }

    /// Removes and returns the head packet of lane `vl`, returning its
    /// slot to the pool.
    #[inline]
    pub fn pop(&mut self, pool: &mut PacketPool, vl: usize) -> Option<Packet> {
        if self.head[vl] == NIL {
            return None;
        }
        let idx = self.head[vl];
        let slot = &pool.slots[idx as usize];
        let p = slot.item.clone();
        self.head[vl] = slot.next;
        if self.head[vl] == NIL {
            self.tail[vl] = NIL;
            self.occupied &= !(1 << vl);
        } else {
            self.head_bytes[vl] = pool.slots[self.head[vl] as usize].item.bytes;
        }
        pool.release(idx);
        self.used[vl] -= u64::from(p.bytes);
        self.len[vl] -= 1;
        Some(p)
    }
}

/// One run of a host lane: `count` consecutive queued packets of one
/// flow, each `bytes` long on the wire.
pub(crate) struct Run {
    /// The fabric's index of the flow (not its id).
    flow: u32,
    count: u32,
    bytes: u32,
}

/// The 16 injection lanes of one host in struct-of-arrays layout, plus
/// an occupancy bitmask. Lanes have no byte bound: sources are paced by
/// their arrival process, not by back-pressure.
///
/// A lane stores no packets, only whose packets are queued, in order:
/// a push from the flow of the lane's tail run extends that run, any
/// other push opens a new run in the fabric's shared [`RunArena`].
/// [`HostLanes::pop`] names the flow whose packet leaves; the fabric
/// rebuilds the packet from that flow's cursor.
pub(crate) struct HostLanes {
    /// Head run index per lane (`NIL` when empty).
    head: [u32; 16],
    /// Tail run index per lane (`NIL` when empty).
    tail: [u32; 16],
    /// Packets queued per lane.
    len: [u64; 16],
    /// Bytes queued per lane.
    used: [u64; 16],
    /// Wire size of the head packet per lane (valid only while the
    /// lane's `occupied` bit is set), read by the candidate scan.
    head_bytes: [u32; 16],
    /// Bit `v` set iff lane `v` holds at least one packet.
    occupied: u16,
}

impl Default for HostLanes {
    fn default() -> Self {
        HostLanes {
            head: [NIL; 16],
            tail: [NIL; 16],
            len: [0; 16],
            used: [0; 16],
            head_bytes: [0; 16],
            occupied: 0,
        }
    }
}

impl HostLanes {
    /// Sixteen empty lanes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bitmask of lanes holding at least one packet (bit `v` = VL v).
    #[must_use]
    #[inline]
    pub fn occupied(&self) -> u16 {
        self.occupied
    }

    /// Packets queued on lane `vl`.
    #[must_use]
    #[inline]
    pub fn len(&self, vl: usize) -> u64 {
        self.len[vl]
    }

    /// Bytes queued over all lanes.
    #[must_use]
    pub fn total_used(&self) -> u64 {
        self.used.iter().sum()
    }

    /// Wire size of the head packet of lane `vl`. Only meaningful while
    /// the lane's [`HostLanes::occupied`] bit is set.
    #[must_use]
    #[inline]
    pub fn head_bytes(&self, vl: usize) -> u32 {
        self.head_bytes[vl]
    }

    /// Appends one `bytes`-long packet of fabric flow `flow` to lane
    /// `vl`: the tail run grows if it is that flow's and not full,
    /// otherwise a new run opens.
    #[inline]
    pub fn push(&mut self, arena: &mut RunArena, vl: usize, flow: u32, bytes: u32) {
        self.used[vl] += u64::from(bytes);
        self.len[vl] += 1;
        self.occupied |= 1 << vl;
        let tail = self.tail[vl];
        if tail != NIL {
            let run = &mut arena.slots[tail as usize].item;
            if run.flow == flow && run.count < u32::MAX {
                debug_assert_eq!(run.bytes, bytes, "flow {flow} changed its packet size");
                run.count += 1;
                return;
            }
        }
        let idx = arena.alloc(Run {
            flow,
            count: 1,
            bytes,
        });
        if tail == NIL {
            self.head[vl] = idx;
            self.head_bytes[vl] = bytes;
        } else {
            arena.slots[tail as usize].next = idx;
        }
        self.tail[vl] = idx;
    }

    /// Removes the head packet of lane `vl` and returns its fabric flow
    /// index; a drained run returns its slot to the arena.
    #[inline]
    pub fn pop(&mut self, arena: &mut RunArena, vl: usize) -> Option<u32> {
        let idx = self.head[vl];
        if idx == NIL {
            return None;
        }
        let slot = &mut arena.slots[idx as usize];
        let Run { flow, bytes, .. } = slot.item;
        slot.item.count -= 1;
        if slot.item.count == 0 {
            let next = slot.next;
            arena.release(idx);
            self.head[vl] = next;
            if next == NIL {
                self.tail[vl] = NIL;
                self.occupied &= !(1 << vl);
            } else {
                self.head_bytes[vl] = arena.slots[next as usize].item.bytes;
            }
        }
        self.used[vl] -= u64::from(bytes);
        self.len[vl] -= 1;
        Some(flow)
    }
}

/// Sender-side credit counters for one link: bytes of free space in the
/// peer's input VL buffers. Decremented when a transfer starts,
/// replenished when the peer drains the packet.
#[derive(Clone, Debug)]
pub struct Credits {
    per_vl: [u64; 16],
}

impl Credits {
    /// Full credits for a peer whose every VL buffer holds
    /// `capacity_bytes`.
    #[must_use]
    pub fn full(capacity_bytes: u64) -> Self {
        Credits {
            per_vl: [capacity_bytes; 16],
        }
    }

    /// Credits available on a VL.
    #[must_use]
    #[inline]
    pub fn available(&self, vl: usize) -> u64 {
        self.per_vl[vl]
    }

    /// Whether `bytes` may be sent on `vl`.
    #[must_use]
    #[inline]
    pub fn can_send(&self, vl: usize, bytes: u64) -> bool {
        self.per_vl[vl] >= bytes
    }

    /// Consumes credit at transfer start.
    #[inline]
    pub fn consume(&mut self, vl: usize, bytes: u64) {
        assert!(self.per_vl[vl] >= bytes, "credit underflow on VL{vl}");
        self.per_vl[vl] -= bytes;
    }

    /// Returns credit when the peer frees the space.
    #[inline]
    pub fn restore(&mut self, vl: usize, bytes: u64) {
        self.per_vl[vl] += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::ServiceLevel;
    use iba_topo::HostId;

    fn pkt(bytes: u32) -> Packet {
        Packet {
            flow: 0,
            seq: 0,
            src: HostId(0),
            dst: HostId(1),
            sl: ServiceLevel::new(0).unwrap(),
            bytes,
            created: 0,
        }
    }

    /// One VL's receive buffer as a plain intrusive list over the pool:
    /// the one-lane reference [`VlQueueSet`] is held to.
    struct VlBuffer {
        head: u32,
        tail: u32,
        len: usize,
        used: u64,
        capacity: u64,
    }

    impl VlBuffer {
        fn new(capacity: u64) -> Self {
            VlBuffer {
                head: NIL,
                tail: NIL,
                len: 0,
                used: 0,
                capacity,
            }
        }

        fn used(&self) -> u64 {
            self.used
        }

        fn fits(&self, bytes: u64) -> bool {
            self.used.saturating_add(bytes) <= self.capacity
        }

        fn len(&self) -> usize {
            self.len
        }

        fn is_empty(&self) -> bool {
            self.len == 0
        }

        fn head<'p>(&self, pool: &'p PacketPool) -> Option<&'p Packet> {
            (self.head != NIL).then(|| &pool.slots[self.head as usize].item)
        }

        fn push(&mut self, pool: &mut PacketPool, p: Packet) {
            assert!(
                self.fits(u64::from(p.bytes)),
                "VL buffer overflow: flow control violated"
            );
            self.used += u64::from(p.bytes);
            self.len += 1;
            let idx = pool.alloc(p);
            if self.tail == NIL {
                self.head = idx;
            } else {
                pool.slots[self.tail as usize].next = idx;
            }
            self.tail = idx;
        }

        fn pop(&mut self, pool: &mut PacketPool) -> Option<Packet> {
            if self.head == NIL {
                return None;
            }
            let idx = self.head;
            let slot = &pool.slots[idx as usize];
            let p = slot.item.clone();
            self.head = slot.next;
            if self.head == NIL {
                self.tail = NIL;
            }
            pool.release(idx);
            self.used -= u64::from(p.bytes);
            self.len -= 1;
            Some(p)
        }
    }

    #[test]
    fn buffer_fifo_and_accounting() {
        let mut pool = PacketPool::new();
        let mut b = VlBuffer::new(1024);
        assert!(b.is_empty());
        b.push(&mut pool, pkt(256));
        b.push(&mut pool, pkt(512));
        assert_eq!(b.len(), 2);
        assert_eq!(b.used(), 768);
        assert!(b.fits(256));
        assert!(!b.fits(257));
        assert_eq!(b.pop(&mut pool).unwrap().bytes, 256);
        assert_eq!(b.used(), 512);
        assert_eq!(b.head(&pool).unwrap().bytes, 512);
    }

    #[test]
    #[should_panic(expected = "flow control violated")]
    fn buffer_overflow_is_a_bug() {
        let mut pool = PacketPool::new();
        let mut b = VlBuffer::new(100);
        b.push(&mut pool, pkt(101));
    }

    #[test]
    fn four_packet_rule() {
        // Four whole packets fit, a fifth does not.
        let mut pool = PacketPool::new();
        let mut b = VlBuffer::new(4 * 256);
        for _ in 0..4 {
            b.push(&mut pool, pkt(256));
        }
        assert!(!b.fits(256));
    }

    #[test]
    fn pool_recycles_slots_across_queues() {
        let mut pool = PacketPool::new();
        let mut a = VlBuffer::new(10_000);
        let mut b = VlBuffer::new(10_000);
        for _ in 0..4 {
            a.push(&mut pool, pkt(100));
        }
        assert_eq!(pool.in_use(), 4);
        assert_eq!(pool.capacity(), 4);
        while a.pop(&mut pool).is_some() {}
        assert_eq!(pool.in_use(), 0);
        // A different queue reuses the same four slots: the arena does
        // not grow in steady state.
        for i in 0..4u32 {
            b.push(&mut pool, pkt(100 + i));
        }
        assert_eq!(pool.capacity(), 4);
        assert_eq!(pool.in_use(), 4);
        // FIFO order survived recycling (free list is LIFO, queues are
        // linked in push order regardless).
        for i in 0..4u32 {
            assert_eq!(b.pop(&mut pool).unwrap().bytes, 100 + i);
        }
    }

    #[test]
    fn unbounded_buffer_never_overflows() {
        // Host lanes have no byte bound, and one flow's backlog is one
        // run however long it grows.
        let mut arena = RunArena::new();
        let mut q = HostLanes::new();
        for _ in 0..100 {
            q.push(&mut arena, 0, 7, u32::MAX / 2);
        }
        assert_eq!(q.len(0), 100);
        assert_eq!(q.total_used(), 100 * u64::from(u32::MAX / 2));
        assert_eq!(arena.in_use(), 1);
    }

    /// Lane `vl`'s length, bytes, head size and occupancy bit.
    fn lane(q: &HostLanes, vl: usize) -> (u64, u64, Option<u32>) {
        let head = (q.occupied() & (1 << vl) != 0).then(|| q.head_bytes(vl));
        (q.len(vl), q.used[vl], head)
    }

    #[test]
    fn host_lane_runs_grow_split_and_pop_in_order() {
        let mut arena = RunArena::new();
        let mut q = HostLanes::new();
        // Same-flow pushes extend one run.
        q.push(&mut arena, 3, 1, 100);
        q.push(&mut arena, 3, 1, 100);
        assert_eq!(arena.in_use(), 1);
        assert_eq!(lane(&q, 3), (2, 200, Some(100)));
        // Another flow opens a run; the first flow again opens a third.
        q.push(&mut arena, 3, 2, 60);
        q.push(&mut arena, 3, 1, 100);
        assert_eq!(arena.in_use(), 3);
        assert_eq!(lane(&q, 3), (4, 360, Some(100)));
        // Lanes keep their own runs.
        q.push(&mut arena, 9, 2, 60);
        assert_eq!(arena.in_use(), 4);
        assert_eq!(q.occupied(), (1 << 3) | (1 << 9));
        assert_eq!(q.total_used(), 420);

        let mut order = Vec::new();
        while let Some(flow) = q.pop(&mut arena, 3) {
            order.push(flow);
            let (len, used, head) = lane(&q, 3);
            assert_eq!(len, 4 - order.len() as u64);
            let expect = [
                (260, Some(100)),
                (160, Some(60)),
                (100, Some(100)),
                (0, None),
            ];
            assert_eq!((used, head), expect[order.len() - 1]);
        }
        assert_eq!(order, [1, 1, 2, 1], "FIFO across runs");
        assert_eq!(q.occupied(), 1 << 9);
        assert_eq!(arena.in_use(), 1);
        // Drained runs are recycled, not grown.
        q.push(&mut arena, 3, 5, 10);
        q.push(&mut arena, 3, 6, 10);
        q.push(&mut arena, 3, 5, 10);
        assert_eq!((arena.in_use(), arena.capacity()), (4, 4));
        assert_eq!(q.pop(&mut arena, 9), Some(2));
        assert_eq!(q.pop(&mut arena, 9), None);
    }

    #[test]
    fn full_run_opens_a_new_run() {
        let mut arena = RunArena::new();
        let mut q = HostLanes::new();
        q.push(&mut arena, 0, 4, 8);
        // Stand in for u32::MAX - 2 further pushes of the same flow.
        arena.slots[q.head[0] as usize].item.count = u32::MAX - 1;
        q.len[0] = u64::from(u32::MAX - 1);
        q.used[0] = 8 * u64::from(u32::MAX - 1);
        q.push(&mut arena, 0, 4, 8);
        assert_eq!(arena.in_use(), 1, "the run fills up to u32::MAX");
        q.push(&mut arena, 0, 4, 8);
        assert_eq!(arena.in_use(), 2, "a full run opens a new one");
        let len = u64::from(u32::MAX) + 1;
        assert_eq!(lane(&q, 0), (len, 8 * len, Some(8)));
        assert_eq!(q.pop(&mut arena, 0), Some(4));
        assert_eq!(lane(&q, 0).0, u64::from(u32::MAX));
        assert_eq!(arena.in_use(), 2);
    }

    #[test]
    fn queue_set_tracks_occupancy_mask() {
        let mut pool = PacketPool::new();
        let mut q = VlQueueSet::new(1024);
        assert_eq!(q.occupied(), 0);
        q.push(&mut pool, 3, pkt(256));
        q.push(&mut pool, 3, pkt(128));
        q.push(&mut pool, 15, pkt(64));
        assert_eq!(q.occupied(), (1 << 3) | (1 << 15));
        assert_eq!(q.len(3), 2);
        assert_eq!(q.used[3], 384);
        assert_eq!(q.total_used(), 448);
        assert_eq!(q.head(&pool, 3).unwrap().bytes, 256);
        assert_eq!(q.pop(&mut pool, 3).unwrap().bytes, 256);
        assert_eq!(q.occupied(), (1 << 3) | (1 << 15), "lane 3 still has one");
        assert_eq!(q.pop(&mut pool, 3).unwrap().bytes, 128);
        assert_eq!(q.occupied(), 1 << 15, "lane 3 drained");
        assert_eq!(q.pop(&mut pool, 15).unwrap().bytes, 64);
        assert_eq!(q.occupied(), 0);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn queue_set_matches_vl_buffer_fifo_semantics() {
        // The SoA layout is an internal change: per-lane behaviour must
        // be indistinguishable from the original one-VlBuffer-per-lane
        // layout under an interleaved push/pop sequence.
        let mut pool_a = PacketPool::new();
        let mut pool_b = PacketPool::new();
        let mut set = VlQueueSet::new(4 * 256);
        let mut bufs: Vec<VlBuffer> = (0..16).map(|_| VlBuffer::new(4 * 256)).collect();
        let ops = [(2, 256), (5, 100), (2, 128), (5, 30), (9, 256)];
        for &(vl, bytes) in &ops {
            set.push(&mut pool_a, vl, pkt(bytes));
            bufs[vl].push(&mut pool_b, pkt(bytes));
        }
        for (vl, buf) in bufs.iter_mut().enumerate() {
            assert_eq!(set.len(vl), buf.len(), "lane {vl} length");
            assert_eq!(set.used[vl], buf.used(), "lane {vl} bytes");
            assert_eq!(set.fits(vl, 256), buf.fits(256), "lane {vl} fits");
            loop {
                let a = set.pop(&mut pool_a, vl).map(|p| p.bytes);
                let b = buf.pop(&mut pool_b).map(|p| p.bytes);
                assert_eq!(a, b, "lane {vl} pop order");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "flow control violated")]
    fn queue_set_overflow_is_a_bug() {
        let mut pool = PacketPool::new();
        let mut q = VlQueueSet::new(100);
        q.push(&mut pool, 0, pkt(101));
    }

    #[test]
    fn credits_consume_restore() {
        let mut c = Credits::full(1024);
        assert!(c.can_send(3, 1024));
        c.consume(3, 1000);
        assert!(!c.can_send(3, 25));
        assert!(c.can_send(3, 24));
        c.restore(3, 1000);
        assert_eq!(c.available(3), 1024);
        // Other VLs unaffected.
        assert_eq!(c.available(4), 1024);
    }

    #[test]
    #[should_panic(expected = "credit underflow")]
    fn credit_underflow_is_a_bug() {
        let mut c = Credits::full(10);
        c.consume(0, 11);
    }
}

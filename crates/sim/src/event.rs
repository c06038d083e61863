//! Deterministic discrete-event queue: a two-level hierarchical timing
//! wheel (Varghese & Lauck) with a `BinaryHeap` overflow tier.
//!
//! Time is cut into 1,024-cycle *blocks*. The **near** level has 1,024
//! one-cycle slots covering the current block; the **far** level has
//! 1,024 block slots covering the next 1,023 blocks (about 1M cycles,
//! past the paper's slowest CBR interarrival time of 638,967 cycles);
//! the **overflow** heap holds anything later, so an event one window
//! ahead never aliases the current block's (empty) far slot. Each slot
//! is an intrusive FIFO list over one node slab with a free list; each
//! level keeps an occupancy bitmap. When the near level drains, the
//! wheel *enters* the next occupied block: it cascades that block's far
//! slot into near slots, then migrates the overflow entries the extended
//! far window covers. Once the slab and the heap reach their high-water
//! marks, the queue allocates nothing.
//!
//! **Determinism.** Pop order is exactly `(time, seq)`, as from a
//! `BinaryHeap<(time, seq)>`. A near slot holds one cycle, so only the
//! order inside a slot needs an argument. It is push order because a
//! push appends to its slot's tail; a cascade moves a far slot into near
//! slots in list order before any push can reach them; overflow entries
//! migrate, in heap order, the moment the far window extends over their
//! block, before any later push can reach those slots; and
//! [`EventQueue::pop_at_most`] never enters a block that starts after
//! `t_end`, so a caller that clamps later pushes to `t_end` (the fabric's
//! `run_until`, `add_flow` and `schedule_fault`) never pushes behind the
//! wheel. A push earlier than the last popped time panics.

use crate::time::Cycles;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event kind processed by the fabric loop.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Event {
    /// A flow's source emits its next packet.
    Generate {
        /// Index into the fabric's flow table.
        flow: u32,
    },
    /// A transfer on an output port completes.
    Complete {
        /// Node owning the output port (encoded, see [`crate::fabric::NodeId`]).
        node: u32,
        /// Output port number.
        port: u8,
    },
    /// A scheduled fault action fires (see [`crate::fault`]).
    Fault {
        /// Index into the fabric's registered fault actions.
        index: u32,
    },
}

/// log2 of the slots per level, and of the cycles per block.
const BITS: u32 = 10;
const SLOTS: usize = 1 << BITS;
const MASK: u64 = SLOTS as u64 - 1;
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// A pending event; `next` links its slot list (or the free list).
#[derive(Clone, Copy)]
struct Node {
    time: Cycles,
    next: u32,
    event: Event,
}

/// One wheel level: the `[head, tail]` of 1,024 slot lists, valid while
/// the slot's bit is set in `words` (`summary` bit `w`: `words[w] != 0`).
struct Level {
    ends: Box<[[u32; 2]; SLOTS]>,
    words: [u64; SLOTS / 64],
    summary: u64,
}

impl Level {
    fn new() -> Self {
        Level {
            ends: Box::new([[NIL; 2]; SLOTS]),
            words: [0; SLOTS / 64],
            summary: 0,
        }
    }

    #[inline]
    fn occupied(&self, slot: usize) -> bool {
        self.words[slot / 64] & 1 << (slot % 64) != 0
    }

    /// Appends node `i` to the tail of `slot`.
    #[inline]
    fn append(&mut self, nodes: &mut [Node], slot: usize, i: u32) {
        nodes[i as usize].next = NIL;
        if self.occupied(slot) {
            nodes[self.ends[slot][1] as usize].next = i;
        } else {
            self.words[slot / 64] |= 1 << (slot % 64);
            self.summary |= 1 << (slot / 64);
            self.ends[slot][0] = i;
        }
        self.ends[slot][1] = i;
    }

    /// Unlinks and returns the head node of the occupied `slot`.
    #[inline]
    fn unlink(&mut self, nodes: &[Node], slot: usize) -> u32 {
        let i = self.ends[slot][0];
        self.ends[slot][0] = nodes[i as usize].next;
        if self.ends[slot][0] == NIL {
            let word = &mut self.words[slot / 64];
            *word &= !(1 << (slot % 64));
            self.summary &= !(u64::from(*word == 0) << (slot / 64));
        }
        i
    }

    /// The first occupied slot at or after `from`, wrapping around.
    #[inline]
    fn first_from(&self, from: usize) -> Option<usize> {
        let (w, bits) = (from / 64, self.words[from / 64] & u64::MAX << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        // Later words first, then wrap to the lowest occupied word.
        let later = self.summary & u64::MAX << w << 1;
        let w = (if later != 0 { later } else { self.summary }).trailing_zeros() as usize;
        (w < 64).then(|| w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// A time-ordered event queue with FIFO tie-breaking (two events at the
/// same cycle fire in push order), which makes runs reproducible.
pub struct EventQueue {
    nodes: Vec<Node>,
    /// Head of the free list through recycled `nodes`.
    free: u32,
    near: Level,
    far: Level,
    /// Events at least 1,024 blocks past the current one.
    overflow: BinaryHeap<Reverse<(Cycles, u64, Event)>>,
    /// Current block: the near level covers `block << BITS` onwards.
    block: u64,
    /// Earliest time a push may carry.
    clock: Cycles,
    /// Push counter; orders same-time overflow entries.
    seq: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::with_capacity(64),
            free: NIL,
            near: Level::new(),
            far: Level::new(),
            overflow: BinaryHeap::new(),
            block: 0,
            clock: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` at `time`; panics if `time` is before the last
    /// popped time or the block a bounded pop entered (at most `t_end`).
    #[inline]
    pub fn push(&mut self, time: Cycles, event: Event) {
        assert!(time >= self.clock, "push at {time} behind the queue clock");
        self.len += 1;
        self.seq += 1;
        if (time >> BITS) - self.block >= SLOTS as u64 {
            self.overflow.push(Reverse((time, self.seq, event)));
        } else {
            self.link(time, event);
        }
    }

    /// Removes the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycles, Event)> {
        self.pop_at_most(Cycles::MAX)
    }

    /// Removes the earliest event if its time is `<= t_end`; never enters
    /// a block that starts after `t_end`.
    #[inline]
    pub fn pop_at_most(&mut self, t_end: Cycles) -> Option<(Cycles, Event)> {
        loop {
            if let Some(slot) = self.near.first_from(0) {
                let time = self.block << BITS | slot as u64;
                if time > t_end {
                    return None;
                }
                let i = self.near.unlink(&self.nodes, slot);
                self.nodes[i as usize].next = self.free;
                self.free = i;
                self.len -= 1;
                self.clock = time;
                return Some((time, self.nodes[i as usize].event));
            }
            let block = match self.far.first_from(((self.block + 1) & MASK) as usize) {
                Some(slot) => self.block + ((slot as u64).wrapping_sub(self.block) & MASK),
                None => self.overflow.peek()?.0 .0 >> BITS,
            };
            if block << BITS > t_end {
                return None;
            }
            self.enter(block);
        }
    }

    /// Makes `block` current (the near level is empty): cascades its far
    /// slot into near slots, then migrates overflow entries in heap order.
    #[inline(never)]
    fn enter(&mut self, block: u64) {
        self.block = block;
        self.clock = block << BITS;
        let slot = (block & MASK) as usize;
        while self.far.occupied(slot) {
            let i = self.far.unlink(&self.nodes, slot);
            let near_slot = (self.nodes[i as usize].time & MASK) as usize;
            self.near.append(&mut self.nodes, near_slot, i);
        }
        while let Some(&Reverse((time, _, event))) = self.overflow.peek() {
            if (time >> BITS) - block >= SLOTS as u64 {
                break;
            }
            self.overflow.pop();
            self.link(time, event);
        }
    }

    /// Stores `event` in a (recycled, when possible) slab node and
    /// appends it to its near or far slot.
    #[inline]
    fn link(&mut self, time: Cycles, event: Event) {
        let node = Node {
            time,
            next: NIL,
            event,
        };
        let i = match self.free {
            NIL => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            i => {
                self.free = self.nodes[i as usize].next;
                self.nodes[i as usize] = node;
                i
            }
        };
        let (level, slot) = match time >> BITS == self.block {
            true => (&mut self.near, time & MASK),
            false => (&mut self.far, (time >> BITS) & MASK),
        };
        level.append(&mut self.nodes, slot as usize, i);
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// No pending events?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The flow ids of `q`'s events, popped to exhaustion, with times.
    fn drain(q: &mut EventQueue) -> Vec<(Cycles, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Generate { flow } => (t, flow),
                other => unreachable!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Generate { flow: 3 });
        q.push(10, Event::Generate { flow: 1 });
        q.push(20, Event::Generate { flow: 2 });
        let times: Vec<Cycles> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for flow in 0..10u32 {
            q.push(5, Event::Generate { flow });
        }
        let flows: Vec<u32> = drain(&mut q).into_iter().map(|(_, f)| f).collect();
        assert_eq!(flows, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        // A bounded pop that stops short of the next event only looks
        // at it: the event stays queued.
        let mut q = EventQueue::new();
        q.push(7, Event::Complete { node: 0, port: 1 });
        assert_eq!(q.pop_at_most(6), None);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
        // Far and overflow tiers: the look is at the minimum over a far
        // slot's list, not its head.
        q.push(5_000, Event::Generate { flow: 0 });
        q.push(4_200, Event::Generate { flow: 1 });
        assert_eq!(q.pop_at_most(4_199), None);
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.pop_at_most(4_200),
            Some((4_200, Event::Generate { flow: 1 }))
        );
        let mut q = EventQueue::new();
        q.push(50_000_000, Event::Generate { flow: 0 });
        assert_eq!(q.pop_at_most(49_999_999), None);
        assert_eq!(q.pop(), Some((50_000_000, Event::Generate { flow: 0 })));
    }

    #[test]
    fn far_future_events_survive_ring_wraparound() {
        let mut q = EventQueue::new();
        // Near, far and overflow tiers, with slot indexes that wrap
        // around both 1,024-slot rings.
        q.push(5, Event::Generate { flow: 0 });
        q.push(70_000, Event::Generate { flow: 1 });
        q.push(1_000_000, Event::Generate { flow: 2 });
        q.push(70_001, Event::Generate { flow: 3 });
        q.push(5_000_000, Event::Generate { flow: 4 });
        let order: Vec<Cycles> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![5, 70_000, 70_001, 1_000_000, 5_000_000]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(100, Event::Generate { flow: 0 });
        assert_eq!(q.pop().unwrap().0, 100);
        // Pushes at the current time after a pop still surface.
        q.push(100, Event::Generate { flow: 1 });
        q.push(356, Event::Generate { flow: 2 });
        assert_eq!(q.pop().unwrap().0, 100);
        assert_eq!(q.pop().unwrap().0, 356);
        assert!(q.pop().is_none());
    }

    #[test]
    fn clustered_duplicates_preserve_order_and_fifo() {
        // Thousands of clustered and duplicate times spanning several
        // blocks: order by time, FIFO among equal times.
        let mut q = EventQueue::new();
        let mut expect: Vec<(Cycles, u32)> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4096u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (state >> 33) % 10_000;
            q.push(t, Event::Generate { flow: i });
            expect.push((t, i));
        }
        expect.sort();
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn block_edges_pop_in_order() {
        let mut q = EventQueue::new();
        let times = [1023, 1024, 2047, 2048, 0, 1_048_575, 1_048_576, 3071];
        for (flow, &t) in times.iter().enumerate() {
            q.push(t, Event::Generate { flow: flow as u32 });
        }
        let mut want: Vec<(Cycles, u32)> = times
            .iter()
            .enumerate()
            .map(|(f, &t)| (t, f as u32))
            .collect();
        want.sort();
        assert_eq!(drain(&mut q), want);
        // After a pop at block 0's last cycle, a push at that cycle
        // (near) still precedes one at block 1's first cycle (far).
        let mut q = EventQueue::new();
        q.push(1023, Event::Generate { flow: 0 });
        assert_eq!(q.pop(), Some((1023, Event::Generate { flow: 0 })));
        q.push(1024, Event::Generate { flow: 1 });
        q.push(1023, Event::Generate { flow: 2 });
        assert_eq!(drain(&mut q), vec![(1023, 2), (1024, 1)]);
    }

    #[test]
    fn one_window_ahead_goes_to_overflow_without_aliasing() {
        // Current block 5; block 5 + 1024 maps to the same far slot as
        // block 5 itself and must wait in the overflow tier, not pop
        // with the current block.
        let base = 5 << BITS;
        let window = (SLOTS as u64) << BITS;
        let mut q = EventQueue::new();
        q.push(base, Event::Generate { flow: 0 });
        assert_eq!(q.pop(), Some((base, Event::Generate { flow: 0 })));
        q.push(base + window, Event::Generate { flow: 1 });
        q.push(base + 7, Event::Generate { flow: 2 });
        q.push(base + window - 1, Event::Generate { flow: 3 });
        assert_eq!(q.overflow.len(), 1);
        assert_eq!(
            drain(&mut q),
            vec![(base + 7, 2), (base + window - 1, 3), (base + window, 1)]
        );
    }

    #[test]
    fn same_time_fifo_across_overflow_and_far_tiers() {
        // A is pushed while its time lies beyond the far window, B for
        // the same time once the window has reached it: A has the
        // smaller seq and must pop first. Once with A's block mid-window
        // and once at the window's far edge, 1,023 blocks past the block
        // the wheel entered.
        for (t, before) in [(3 << 20, (3 << 20) - 500_000), (1024 << BITS, 1 << BITS)] {
            let mut q = EventQueue::new();
            q.push(t, Event::Generate { flow: 0 }); // A: overflow
            q.push(before, Event::Generate { flow: 1 });
            assert_eq!(q.pop(), Some((before, Event::Generate { flow: 1 })));
            q.push(t, Event::Generate { flow: 2 }); // B: far
            q.push(t, Event::Generate { flow: 3 });
            assert_eq!(drain(&mut q), vec![(t, 0), (t, 2), (t, 3)]);
        }
    }

    #[test]
    fn bounded_pop_then_push_at_t_end() {
        let mut q = EventQueue::new();
        q.push(10_000, Event::Generate { flow: 0 });
        q.push(9_000_000, Event::Generate { flow: 1 });
        // Bounds before the event's block and inside it (which enters
        // the block): neither may pop, both keep `t_end` pushable.
        for t_end in [5_000, 9_999] {
            assert_eq!(q.pop_at_most(t_end), None);
        }
        q.push(9_999, Event::Generate { flow: 2 });
        assert_eq!(
            q.pop_at_most(10_000),
            Some((9_999, Event::Generate { flow: 2 }))
        );
        assert_eq!(
            q.pop_at_most(10_000),
            Some((10_000, Event::Generate { flow: 0 }))
        );
        assert_eq!(q.pop_at_most(8_000_000), None);
        q.push(8_000_000, Event::Generate { flow: 3 });
        q.push(8_000_000, Event::Generate { flow: 4 });
        assert_eq!(
            drain(&mut q),
            vec![(8_000_000, 3), (8_000_000, 4), (9_000_000, 1)]
        );
    }

    #[test]
    fn a_pending_event_costs_one_24_byte_node() {
        assert_eq!(std::mem::size_of::<Node>(), 24);
    }

    #[test]
    #[should_panic(expected = "behind the queue clock")]
    fn push_behind_the_clock_panics() {
        let mut q = EventQueue::new();
        q.push(500, Event::Generate { flow: 0 });
        q.pop();
        q.push(499, Event::Generate { flow: 1 });
    }

    /// Pops `q` and the reference heap in lockstep, asserting they agree.
    fn pop_both(
        q: &mut EventQueue,
        h: &mut BinaryHeap<Reverse<(Cycles, u64, u32)>>,
        t_end: Cycles,
        op: u64,
    ) -> Option<Cycles> {
        let want = match h.peek() {
            Some(&Reverse((t, _, f))) if t <= t_end => {
                h.pop();
                Some((t, Event::Generate { flow: f }))
            }
            _ => None,
        };
        let got = q.pop_at_most(t_end);
        assert_eq!(got, want, "diverged at op {op}");
        assert_eq!(q.len(), h.len(), "length diverged at op {op}");
        got.map(|(t, _)| t)
    }

    #[test]
    fn matches_reference_heap_on_random_workload() {
        // Seeded 1M-op differential against a BinaryHeap with the same
        // (time, seq) order, with the fabric's look-ahead mix: packet
        // times, CBR interarrival times of up to 640k cycles and gaps
        // past the far window, plus bounded pops (run_until's clamp).
        let mut q = EventQueue::new();
        let mut h: BinaryHeap<Reverse<(Cycles, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut state = 42u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for op in 0..1_000_000u64 {
            let r = rand();
            match r % 16 {
                0..=6 => {
                    let ahead = match (r >> 8) % 8 {
                        0..=3 => (r >> 16) % 4_096,
                        4..=6 => (r >> 16) % 640_000,
                        _ => 1_000_000 + (r >> 16) % 3_000_000,
                    };
                    // Half the pushes land on a coarse grid, so
                    // same-time ties across tiers are common.
                    let t = match (r >> 40) & 1 {
                        0 => now + ahead,
                        _ => (now + ahead).next_multiple_of(1 << 12),
                    };
                    q.push(t, Event::Generate { flow: op as u32 });
                    h.push(Reverse((t, seq, op as u32)));
                    seq += 1;
                }
                7 => {
                    // A bounded pop that may stop short; the caller's
                    // clock then advances to t_end, as in run_until.
                    let t_end = now + (r >> 8) % 2_000_000;
                    now = pop_both(&mut q, &mut h, t_end, op).unwrap_or(t_end);
                }
                _ => {
                    if let Some(t) = pop_both(&mut q, &mut h, Cycles::MAX, op) {
                        now = t;
                    }
                }
            }
        }
        while pop_both(&mut q, &mut h, Cycles::MAX, u64::MAX).is_some() {}
        assert!(q.is_empty());
    }
}

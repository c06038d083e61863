//! Bounded ring-buffer event tracer.
//!
//! The ring holds a fixed number of timestamped [`TraceEvent`]s and
//! overwrites the oldest when full, counting how many were dropped so
//! reports can say so.

use crate::recorder::{RejectKind, ServedKind};

/// Stage codes of a [`TraceEvent::Request`]. The numeric order **is**
/// the causal order within one request, so sorting records by `(rid,
/// stage, path)` reconstructs the span tree.
pub mod request_stage {
    /// The service dispatched the operation (root of the span).
    pub const DISPATCH: u8 = 0;
    /// One hop reservation committed. (Code 1 is unused: pinned
    /// digests hash these values, so they keep their numbers.)
    pub const COMMIT: u8 = 2;
    /// A table rejected the admission and its hops rolled back.
    pub const ABORT: u8 = 3;
    /// The service finalized the operation (close of the span).
    pub const FINALIZE: u8 = 4;
    /// Path-index placeholder for stages that concern no single hop.
    pub const NO_PATH: u8 = 0xFF;

    /// Short label for reports; `"request"` for unknown codes.
    #[must_use]
    pub fn label(code: u8) -> &'static str {
        match code {
            DISPATCH => "dispatch",
            COMMIT => "commit",
            ABORT => "abort",
            FINALIZE => "finalize",
            _ => "request",
        }
    }
}

/// Sub-kind codes of a [`TraceEvent::Serve`].
pub mod serve_code {
    /// An injected owner crash (volatile state destroyed).
    pub const CRASH: u8 = 0;
    /// A restart replayed the write-ahead journal; `detail` is the
    /// number of records replayed.
    pub const JOURNAL_REPLAY: u8 = 1;
    /// A timeout expired; `detail` is the deterministic backoff delay
    /// in cycles.
    pub const TIMEOUT: u8 = 2;

    /// Short label for reports; `"serve"` for unknown codes.
    #[must_use]
    pub fn label(code: u8) -> &'static str {
        match code {
            CRASH => "crash",
            JOURNAL_REPLAY => "journal-replay",
            TIMEOUT => "timeout",
            _ => "serve",
        }
    }
}

/// Sub-kind codes of a [`TraceEvent::Fault`].
pub mod fault_code {
    /// Link rate degraded; `detail` is the slow-down shift (0 restores
    /// full rate).
    pub const LINK_DEGRADE: u8 = 0;
    /// Link taken down (no new transfers start).
    pub const LINK_DOWN: u8 = 1;
    /// Link restored.
    pub const LINK_UP: u8 = 2;
    /// VL blackout mask installed; `detail` is the 16-bit VL mask.
    pub const VL_BLACKOUT: u8 = 3;
    /// Credit-stall mask installed; `detail` is the 16-bit VL mask.
    pub const CREDIT_STALL: u8 = 4;
    /// Installed arbitration table corrupted; `detail` is the
    /// corruption seed's low 32 bits.
    pub const TABLE_CORRUPT: u8 = 5;
    /// Recovery repaired a damaged table; `detail` is the number of
    /// evicted sequences.
    pub const RECOVERY_REPAIR: u8 = 8;
    /// Recovery re-installed arbitration tables on the fabric.
    pub const RECOVERY_REINSTALL: u8 = 9;
    /// Recovery placed a re-install looser than its contracted
    /// distance.
    pub const RECOVERY_DEGRADED: u8 = 11;

    /// Short label for reports; `"fault"` for unknown codes.
    #[must_use]
    pub fn label(code: u8) -> &'static str {
        match code {
            LINK_DEGRADE => "link-degrade",
            LINK_DOWN => "link-down",
            LINK_UP => "link-up",
            VL_BLACKOUT => "vl-blackout",
            CREDIT_STALL => "credit-stall",
            TABLE_CORRUPT => "table-corrupt",
            RECOVERY_REPAIR => "recovery-repair",
            RECOVERY_REINSTALL => "recovery-reinstall",
            RECOVERY_DEGRADED => "recovery-degraded",
            _ => "fault",
        }
    }
}

/// A trace event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// The arbiter granted `bytes` to `vl` from the given table.
    Grant {
        /// Virtual lane granted.
        vl: u8,
        /// Packet size in bytes.
        bytes: u64,
        /// Which table served the grant.
        served: ServedKind,
    },
    /// A head packet was blocked on downstream credit.
    HolStall {
        /// Virtual lane of the stalled head packet.
        vl: u8,
    },
    /// A grant drained its table entry's weight credit.
    WeightExhausted {
        /// Virtual lane whose entry was exhausted.
        vl: u8,
    },
    /// An inter-grant gap exceeded the lane's service-guarantee budget.
    AuditViolation {
        /// Virtual lane that missed its guarantee.
        vl: u8,
        /// Observed inter-grant distance in table slots.
        gap_slots: u32,
        /// The lane's budget (`d`) in table slots.
        budget_slots: u16,
    },
    /// A connection was admitted.
    Admit {
        /// Service level of the admitted connection.
        sl: u8,
    },
    /// A connection was rejected.
    Reject {
        /// Why the connection was rejected.
        reason: RejectKind,
    },
    /// A connection was torn down.
    Release,
    /// An allocator select finished.
    AllocSelect {
        /// Number of E-sets probed.
        depth: u32,
        /// Whether a free sequence was found.
        found: bool,
    },
    /// A fault was injected or a recovery action taken.
    Fault {
        /// Sub-kind (one of the [`fault_code`] constants).
        code: u8,
        /// Affected port (or 0 for table-level recovery actions).
        port: u16,
        /// Sub-kind-specific detail (mask, shift, evictions, cycles).
        detail: u32,
    },
    /// One causal stage of an admission-service request.
    Request {
        /// The request id (trace operation index).
        rid: u32,
        /// Stage code (one of the [`request_stage`] constants).
        stage: u8,
        /// Path (hop) index the stage concerns, or
        /// [`request_stage::NO_PATH`] when none.
        path: u8,
    },
    /// A control-plane fault-tolerance action of the admission service.
    Serve {
        /// Sub-kind (one of the [`serve_code`] constants).
        code: u8,
        /// Sub-kind-specific detail (records replayed, backoff cycles).
        detail: u32,
    },
}

impl TraceEvent {
    /// One-line text rendering (used by `ibaqos trace`).
    #[must_use]
    pub fn render(&self, time: u64) -> String {
        match *self {
            TraceEvent::Grant { vl, bytes, served } => format!(
                "{time:>10}  grant            vl={vl:<2} bytes={bytes:<6} table={}",
                served.label()
            ),
            TraceEvent::HolStall { vl } => {
                format!("{time:>10}  hol-stall        vl={vl}")
            }
            TraceEvent::WeightExhausted { vl } => {
                format!("{time:>10}  weight-exhausted vl={vl}")
            }
            TraceEvent::AuditViolation {
                vl,
                gap_slots,
                budget_slots,
            } => format!(
                "{time:>10}  audit-violation  vl={vl} gap={gap_slots}slots budget={budget_slots}"
            ),
            TraceEvent::Admit { sl } => format!("{time:>10}  cac-admit        sl={sl}"),
            TraceEvent::Reject { reason } => {
                format!("{time:>10}  cac-reject       reason={}", reason.label())
            }
            TraceEvent::Release => format!("{time:>10}  cac-release"),
            TraceEvent::AllocSelect { depth, found } => format!(
                "{time:>10}  alloc-select     depth={depth} result={}",
                if found { "found" } else { "exhausted" }
            ),
            TraceEvent::Fault { code, port, detail } => format!(
                "{time:>10}  fault            kind={} port={port} detail={detail}",
                fault_code::label(code)
            ),
            TraceEvent::Request { rid, stage, path } => {
                let at = if path == request_stage::NO_PATH {
                    String::from("-")
                } else {
                    path.to_string()
                };
                format!(
                    "{time:>10}  request          rid={rid} stage={} path={at}",
                    request_stage::label(stage)
                )
            }
            TraceEvent::Serve { code, detail } => format!(
                "{time:>10}  serve            kind={} detail={detail}",
                serve_code::label(code)
            ),
        }
    }
}

/// A bounded ring of timestamped trace events. When full, pushing
/// overwrites the oldest record and bumps [`RingTracer::dropped`].
#[derive(Clone, Debug)]
pub struct RingTracer {
    buf: Vec<(u64, TraceEvent)>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl Default for RingTracer {
    fn default() -> Self {
        RingTracer::new(4096)
    }
}

impl RingTracer {
    /// A tracer holding at most `capacity` records (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RingTracer {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many records were overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends an event, overwriting the oldest record when full.
    pub fn push(&mut self, now: u64, ev: TraceEvent) {
        let rec = (now, ev);
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// The held records in arrival order (oldest first).
    #[must_use]
    pub fn records(&self) -> Vec<(u64, TraceEvent)> {
        let (tail, head) = self.buf.split_at(self.head.min(self.buf.len()));
        [head, tail].concat()
    }

    /// Renders the newest `limit` records as text lines (oldest of the
    /// window first). `limit == 0` means all held records.
    #[must_use]
    pub fn render(&self, limit: usize) -> Vec<String> {
        let records = self.records();
        let start = if limit == 0 {
            0
        } else {
            records.len().saturating_sub(limit)
        };
        records[start..]
            .iter()
            .map(|(t, ev)| ev.render(*t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_codes_have_distinct_labels() {
        let codes = [
            fault_code::LINK_DEGRADE,
            fault_code::LINK_DOWN,
            fault_code::LINK_UP,
            fault_code::VL_BLACKOUT,
            fault_code::CREDIT_STALL,
            fault_code::TABLE_CORRUPT,
            fault_code::RECOVERY_REPAIR,
            fault_code::RECOVERY_REINSTALL,
            fault_code::RECOVERY_DEGRADED,
        ];
        let mut labels: Vec<&str> = codes.iter().map(|&c| fault_code::label(c)).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), codes.len(), "fault-code labels collide");
        assert_eq!(fault_code::label(0xEE), "fault");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = RingTracer::new(3);
        for i in 0..5u64 {
            t.push(i, TraceEvent::Admit { sl: i as u8 });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let recs = t.records();
        let times: Vec<u64> = recs.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![2, 3, 4]);
        let sls: Vec<TraceEvent> = recs.iter().map(|(_, ev)| *ev).collect();
        assert_eq!(
            sls,
            vec![
                TraceEvent::Admit { sl: 2 },
                TraceEvent::Admit { sl: 3 },
                TraceEvent::Admit { sl: 4 },
            ]
        );
    }

    /// Every variant, with its fields at edge values, goes into the
    /// ring and comes back out unchanged (the ring is the only stored
    /// form of an event).
    #[test]
    fn encode_decode_roundtrip_every_kind() {
        let events = [
            TraceEvent::Grant {
                vl: 3,
                bytes: 4122,
                served: ServedKind::Low,
            },
            TraceEvent::HolStall { vl: 1 },
            TraceEvent::WeightExhausted { vl: 15 },
            TraceEvent::AuditViolation {
                vl: 2,
                gap_slots: 8,
                budget_slots: 4,
            },
            TraceEvent::Admit { sl: 7 },
            TraceEvent::Reject {
                reason: RejectKind::CapacityExceeded,
            },
            TraceEvent::Release,
            TraceEvent::AllocSelect {
                depth: 64,
                found: false,
            },
            TraceEvent::Fault {
                code: fault_code::RECOVERY_REPAIR,
                port: 3,
                detail: 5,
            },
            TraceEvent::Request {
                rid: u32::MAX,
                stage: request_stage::ABORT,
                path: request_stage::NO_PATH,
            },
            TraceEvent::Serve {
                code: serve_code::JOURNAL_REPLAY,
                detail: 17,
            },
        ];
        // The match is exhaustive, so a new variant does not compile
        // until it is listed above.
        let variant = |ev: &TraceEvent| match ev {
            TraceEvent::Grant { .. } => 0,
            TraceEvent::HolStall { .. } => 1,
            TraceEvent::WeightExhausted { .. } => 2,
            TraceEvent::AuditViolation { .. } => 3,
            TraceEvent::Admit { .. } => 4,
            TraceEvent::Reject { .. } => 5,
            TraceEvent::Release => 6,
            TraceEvent::AllocSelect { .. } => 7,
            TraceEvent::Fault { .. } => 8,
            TraceEvent::Request { .. } => 9,
            TraceEvent::Serve { .. } => 10,
        };
        assert!(events.iter().map(variant).eq(0..11));
        // Three older pushes, then one of every variant, into a ring
        // that holds exactly the variants: the head wraps around, the
        // three are overwritten, and every variant comes back
        // unchanged and oldest first.
        let older = [TraceEvent::Admit { sl: 0 }; 3];
        let mut t = RingTracer::new(events.len());
        let pushed: Vec<(u64, TraceEvent)> = older
            .iter()
            .chain(events.iter())
            .enumerate()
            .map(|(i, ev)| (1000 + i as u64, *ev))
            .collect();
        for &(now, ev) in &pushed {
            t.push(now, ev);
        }
        assert_eq!(t.len(), events.len());
        assert_eq!(t.dropped(), older.len() as u64);
        assert_eq!(t.records(), pushed[older.len()..]);
    }

    #[test]
    fn render_limits_to_newest_records() {
        let mut t = RingTracer::new(16);
        for i in 0..6u64 {
            t.push(i, TraceEvent::Release);
        }
        assert_eq!(t.render(0).len(), 6);
        let last_two = t.render(2);
        assert_eq!(last_two.len(), 2);
        assert!(last_two[0].trim_start().starts_with('4'));
        assert!(last_two[1].trim_start().starts_with('5'));
    }

    #[test]
    fn empty_tracer_renders_nothing() {
        let t = RingTracer::new(8);
        assert!(t.is_empty());
        assert!(t.records().is_empty());
        assert!(t.render(10).is_empty());
    }
}

//! Bounded ring-buffer event tracer with a compact binary record
//! format.
//!
//! Each record is exactly [`RECORD_BYTES`] bytes, little-endian:
//!
//! ```text
//! offset  size  field
//! 0       8     timestamp (simulator cycles, u64)
//! 8       1     kind      (see the `KIND_*` constants)
//! 9       1     lane      (VL or SL; 0 when unused)
//! 10      2     aux       (kind-specific: served-by / reject code / depth)
//! 12      4     value     (kind-specific: bytes granted; 0 when unused)
//! ```
//!
//! The ring holds a fixed number of records and overwrites the oldest
//! when full, counting how many were dropped so reports can say so.

use crate::recorder::{RejectKind, ServedKind};

/// Size in bytes of one encoded trace record.
pub const RECORD_BYTES: usize = 16;

/// Record kind: an arbitration grant.
pub const KIND_GRANT: u8 = 1;
/// Record kind: a head-of-line stall observation.
pub const KIND_HOL_STALL: u8 = 2;
/// Record kind: a table entry's weight credit drained.
pub const KIND_WEIGHT_EXHAUSTED: u8 = 3;
/// Record kind: a service-guarantee audit violation (an inter-grant
/// gap exceeded its lane's `d`·slot budget). Fills the historical gap
/// between `KIND_WEIGHT_EXHAUSTED` and `KIND_ADMIT`.
pub const KIND_AUDIT_VIOLATION: u8 = 4;
/// Record kind: a connection admission.
pub const KIND_ADMIT: u8 = 5;
/// Record kind: a connection rejection.
pub const KIND_REJECT: u8 = 6;
/// Record kind: a connection teardown.
pub const KIND_RELEASE: u8 = 7;
/// Record kind: an allocator select (probe-sequence walk) finished.
pub const KIND_ALLOC_SELECT: u8 = 8;
/// Record kind: a fault-injection or recovery action. The `lane` byte
/// carries a sub-kind from [`fault_code`], `aux` the affected port and
/// `value` a sub-kind-specific detail (mask, rate shift, eviction
/// count, backoff cycles).
pub const KIND_FAULT: u8 = 9;
/// Record kind: one causal stage of an admission-service request
/// (dispatch → commit/abort → finalize). The `lane` byte carries a
/// [`request_stage`] code, `aux` packs the shard (high byte, 0 since
/// the service has one owner) and path index (low byte;
/// [`request_stage::NO_PATH`] when the stage has no hop), and `value`
/// is the request id.
pub const KIND_REQUEST: u8 = 10;
/// Record kind: a control-plane fault-tolerance action of the
/// admission service (crash, journal replay, timeout). The `lane` byte
/// carries the shard (0 since the service has one owner), `aux` a
/// sub-kind from [`serve_code`] and `value` a sub-kind-specific detail
/// (records replayed, backoff cycles).
pub const KIND_SERVE: u8 = 11;

/// Stage codes carried in the `lane` byte of a
/// [`TraceEvent::Request`] record. The numeric order **is** the causal
/// order within one request, so sorting records by `(rid, stage, path,
/// shard)` reconstructs the span tree.
pub mod request_stage {
    /// The service dispatched the operation (root of the span).
    pub const DISPATCH: u8 = 0;
    /// A vote on the admission's hops (decoded for older traces; the
    /// single-owner service emits none).
    pub const VOTE: u8 = 1;
    /// One hop reservation committed.
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
            VOTE => "vote",
            COMMIT => "commit",
            ABORT => "abort",
            FINALIZE => "finalize",
            _ => "request",
        }
    }
}

/// Sub-kind codes carried in the `aux` field of a
/// [`TraceEvent::Serve`] record.
pub mod serve_code {
    /// An injected owner crash (volatile state destroyed).
    pub const CRASH: u8 = 0;
    /// A restart replayed the write-ahead journal; `value`
    /// is the number of records replayed.
    pub const JOURNAL_REPLAY: u8 = 1;
    /// A timeout expired; `value` is the deterministic
    /// backoff delay in cycles.
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

/// Sub-kind codes carried in the `lane` byte of a
/// [`TraceEvent::Fault`] record.
pub mod fault_code {
    /// Link rate degraded; `value` is the slow-down shift (0 restores
    /// full rate).
    pub const LINK_DEGRADE: u8 = 0;
    /// Link taken down (no new transfers start).
    pub const LINK_DOWN: u8 = 1;
    /// Link restored.
    pub const LINK_UP: u8 = 2;
    /// VL blackout mask installed; `value` is the 16-bit VL mask.
    pub const VL_BLACKOUT: u8 = 3;
    /// Credit-stall mask installed; `value` is the 16-bit VL mask.
    pub const CREDIT_STALL: u8 = 4;
    /// Installed arbitration table corrupted; `value` is the
    /// corruption seed's low 32 bits.
    pub const TABLE_CORRUPT: u8 = 5;
    /// Recovery repaired a damaged table; `value` is the number of
    /// evicted sequences.
    pub const RECOVERY_REPAIR: u8 = 8;
    /// Recovery re-installed arbitration tables on the fabric.
    pub const RECOVERY_REINSTALL: u8 = 9;
    /// Recovery retried an admission; `value` is the backoff delay in
    /// cycles.
    pub const RECOVERY_RETRY: u8 = 10;
    /// Recovery escalated a re-install down the distance ladder.
    pub const RECOVERY_DEGRADED: u8 = 11;
    /// A control-plane fault calendar crashed the admission service's
    /// owner; `value` is the targeted trace-op index.
    pub const SERVE_CRASH: u8 = 12;
    /// A control-plane fault calendar lost or duplicated a request to
    /// the admission service; `value` is the targeted trace-op index.
    pub const SERVE_REQUEST_LOSS: u8 = 13;
    /// A control-plane fault calendar lost the admission service's
    /// reply; `value` is the targeted trace-op index.
    pub const SERVE_REPLY_LOSS: u8 = 14;

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
            RECOVERY_RETRY => "recovery-retry",
            RECOVERY_DEGRADED => "recovery-degraded",
            SERVE_CRASH => "serve-crash",
            SERVE_REQUEST_LOSS => "serve-request-loss",
            SERVE_REPLY_LOSS => "serve-reply-loss",
            _ => "fault",
        }
    }
}

/// A decoded trace event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// The arbiter granted `bytes` to `vl` from the given table.
    Grant {
        /// Virtual lane granted.
        vl: u8,
        /// Packet size in bytes (clamped to `u32::MAX` on encode).
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
        /// Shard that produced the record (0: the service has one
        /// owner).
        shard: u8,
        /// Path (hop) index the stage concerns, or
        /// [`request_stage::NO_PATH`] when none.
        path: u8,
    },
    /// A control-plane fault-tolerance action of the admission service.
    Serve {
        /// Sub-kind (one of the [`serve_code`] constants).
        code: u8,
        /// Affected shard (0: the service has one owner).
        shard: u8,
        /// Sub-kind-specific detail (records replayed, backoff cycles).
        detail: u32,
    },
}

impl TraceEvent {
    /// Encodes the event at `now` into the 16-byte wire form.
    #[must_use]
    pub fn encode(&self, now: u64) -> [u8; RECORD_BYTES] {
        let (kind, lane, aux, value): (u8, u8, u16, u32) = match *self {
            TraceEvent::Grant { vl, bytes, served } => {
                let clamped = u32::try_from(bytes).unwrap_or(u32::MAX);
                (KIND_GRANT, vl, served.code(), clamped)
            }
            TraceEvent::HolStall { vl } => (KIND_HOL_STALL, vl, 0, 0),
            TraceEvent::WeightExhausted { vl } => (KIND_WEIGHT_EXHAUSTED, vl, 0, 0),
            TraceEvent::AuditViolation {
                vl,
                gap_slots,
                budget_slots,
            } => (KIND_AUDIT_VIOLATION, vl, budget_slots, gap_slots),
            TraceEvent::Admit { sl } => (KIND_ADMIT, sl, 0, 0),
            TraceEvent::Reject { reason } => (KIND_REJECT, 0, reason.index() as u16, 0),
            TraceEvent::Release => (KIND_RELEASE, 0, 0, 0),
            TraceEvent::AllocSelect { depth, found } => {
                (KIND_ALLOC_SELECT, 0, u16::from(found), depth)
            }
            TraceEvent::Fault { code, port, detail } => (KIND_FAULT, code, port, detail),
            TraceEvent::Request {
                rid,
                stage,
                shard,
                path,
            } => (
                KIND_REQUEST,
                stage,
                (u16::from(shard) << 8) | u16::from(path),
                rid,
            ),
            TraceEvent::Serve {
                code,
                shard,
                detail,
            } => (KIND_SERVE, shard, u16::from(code), detail),
        };
        let mut buf = [0u8; RECORD_BYTES];
        buf[0..8].copy_from_slice(&now.to_le_bytes());
        buf[8] = kind;
        buf[9] = lane;
        buf[10..12].copy_from_slice(&aux.to_le_bytes());
        buf[12..16].copy_from_slice(&value.to_le_bytes());
        buf
    }

    /// Decodes one 16-byte record; `None` for unknown kinds or codes.
    /// Returns the timestamp alongside the event.
    #[must_use]
    pub fn decode(buf: &[u8; RECORD_BYTES]) -> Option<(u64, TraceEvent)> {
        let mut t8 = [0u8; 8];
        t8.copy_from_slice(&buf[0..8]);
        let time = u64::from_le_bytes(t8);
        let kind = buf[8];
        let lane = buf[9];
        let aux = u16::from_le_bytes([buf[10], buf[11]]);
        let value = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]);
        let ev = match kind {
            KIND_GRANT => TraceEvent::Grant {
                vl: lane,
                bytes: u64::from(value),
                served: ServedKind::from_code(aux)?,
            },
            KIND_HOL_STALL => TraceEvent::HolStall { vl: lane },
            KIND_WEIGHT_EXHAUSTED => TraceEvent::WeightExhausted { vl: lane },
            KIND_AUDIT_VIOLATION => TraceEvent::AuditViolation {
                vl: lane,
                gap_slots: value,
                budget_slots: aux,
            },
            KIND_ADMIT => TraceEvent::Admit { sl: lane },
            KIND_REJECT => TraceEvent::Reject {
                reason: RejectKind::from_code(aux)?,
            },
            KIND_RELEASE => TraceEvent::Release,
            KIND_ALLOC_SELECT => TraceEvent::AllocSelect {
                depth: value,
                found: aux != 0,
            },
            KIND_FAULT => TraceEvent::Fault {
                code: lane,
                port: aux,
                detail: value,
            },
            KIND_REQUEST => TraceEvent::Request {
                rid: value,
                stage: lane,
                shard: (aux >> 8) as u8,
                path: (aux & 0xFF) as u8,
            },
            KIND_SERVE => TraceEvent::Serve {
                code: aux as u8,
                shard: lane,
                detail: value,
            },
            _ => return None,
        };
        Some((time, ev))
    }

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
            TraceEvent::Request {
                rid,
                stage,
                shard,
                path,
            } => {
                let at = if path == request_stage::NO_PATH {
                    String::from("-")
                } else {
                    path.to_string()
                };
                format!(
                    "{time:>10}  request          rid={rid} stage={} shard={shard} path={at}",
                    request_stage::label(stage)
                )
            }
            TraceEvent::Serve {
                code,
                shard,
                detail,
            } => format!(
                "{time:>10}  serve            kind={} shard={shard} detail={detail}",
                serve_code::label(code)
            ),
        }
    }
}

/// A bounded ring of encoded trace records. When full, pushing
/// overwrites the oldest record and bumps [`RingTracer::dropped`].
#[derive(Clone, Debug)]
pub struct RingTracer {
    buf: Vec<[u8; RECORD_BYTES]>,
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
        let rec = ev.encode(now);
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// Decoded records in arrival order (oldest first). Records with
    /// unknown kinds are skipped.
    #[must_use]
    pub fn records(&self) -> Vec<(u64, TraceEvent)> {
        let (tail, head) = self.buf.split_at(self.head.min(self.buf.len()));
        head.iter()
            .chain(tail.iter())
            .filter_map(TraceEvent::decode)
            .collect()
    }

    /// The raw encoded bytes in arrival order (oldest first) — the
    /// binary trace format, `len() * RECORD_BYTES` bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let (tail, head) = self.buf.split_at(self.head.min(self.buf.len()));
        head.iter()
            .chain(tail.iter())
            .flat_map(|r| r.iter().copied())
            .collect()
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
    fn encode_decode_roundtrip_every_kind() {
        let events = [
            TraceEvent::Grant {
                vl: 3,
                bytes: 2048,
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
                depth: 9,
                found: true,
            },
            TraceEvent::AllocSelect {
                depth: 64,
                found: false,
            },
            TraceEvent::Fault {
                code: fault_code::LINK_DOWN,
                port: 3,
                detail: 0,
            },
            TraceEvent::Fault {
                code: fault_code::RECOVERY_REPAIR,
                port: 0,
                detail: 5,
            },
            TraceEvent::Request {
                rid: 42,
                stage: request_stage::COMMIT,
                shard: 3,
                path: 1,
            },
            TraceEvent::Request {
                rid: u32::MAX,
                stage: request_stage::ABORT,
                shard: 255,
                path: request_stage::NO_PATH,
            },
            TraceEvent::Serve {
                code: serve_code::JOURNAL_REPLAY,
                shard: 2,
                detail: 17,
            },
        ];
        for (i, ev) in events.iter().enumerate() {
            let t = 1000 + i as u64;
            let buf = ev.encode(t);
            assert_eq!(TraceEvent::decode(&buf), Some((t, *ev)));
        }
        // Every declared KIND_* constant is exercised above: the wire
        // kinds seen on encode must be exactly the declared set, with
        // no numbering gaps left in 1..=11.
        let mut kinds: Vec<u8> = events.iter().map(|ev| ev.encode(0)[8]).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            kinds,
            vec![
                KIND_GRANT,
                KIND_HOL_STALL,
                KIND_WEIGHT_EXHAUSTED,
                KIND_AUDIT_VIOLATION,
                KIND_ADMIT,
                KIND_REJECT,
                KIND_RELEASE,
                KIND_ALLOC_SELECT,
                KIND_FAULT,
                KIND_REQUEST,
                KIND_SERVE,
            ]
        );
        assert_eq!(kinds, (1..=11).collect::<Vec<u8>>());
    }

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
            fault_code::RECOVERY_RETRY,
            fault_code::RECOVERY_DEGRADED,
            fault_code::SERVE_CRASH,
            fault_code::SERVE_REQUEST_LOSS,
            fault_code::SERVE_REPLY_LOSS,
        ];
        let mut labels: Vec<&str> = codes.iter().map(|&c| fault_code::label(c)).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), codes.len(), "fault-code labels collide");
        assert_eq!(fault_code::label(0xEE), "fault");
    }

    #[test]
    fn grant_bytes_clamp_to_u32() {
        let ev = TraceEvent::Grant {
            vl: 0,
            bytes: u64::MAX,
            served: ServedKind::High,
        };
        let decoded = TraceEvent::decode(&ev.encode(0)).map(|(_, e)| e);
        assert_eq!(
            decoded,
            Some(TraceEvent::Grant {
                vl: 0,
                bytes: u64::from(u32::MAX),
                served: ServedKind::High,
            })
        );
    }

    #[test]
    fn unknown_kind_decodes_to_none() {
        let mut buf = [0u8; RECORD_BYTES];
        buf[8] = 0xEE;
        assert_eq!(TraceEvent::decode(&buf), None);
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
        assert_eq!(t.to_bytes().len(), 3 * RECORD_BYTES);
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

//! The admission service's write-ahead journal: what makes a crash of
//! its single owner survivable.
//!
//! A crash (injected by the fault plan in [`crate::service`]) loses the
//! owner's manager, request-id map and reply cache. The journal is the
//! one durable artifact: before the owner applies a trace operation it
//! appends a [`JournalRecord::Intent`], and after the operation
//! completed a [`JournalRecord::Done`] with the outcome. A restart
//! replays every intent, in order, from the empty manager (all table
//! mutations are deterministic, so the rebuilt state is byte-identical)
//! and rolls a dangling tail intent forward and closes it. Records are
//! keyed by [`OpKey`], the trace position; a retry reuses the key, so a
//! re-delivered operation is a reply-cache hit, not a second execution.
//!
//! The journal is an in-memory `Vec` (the workspace has no persistence
//! layer), but the discipline is the real one: append before acting,
//! replay on restart, idempotency keys for retry dedup.

use crate::service::{TraceOp, TraceOutcome};

/// Idempotency key of one trace operation: its index in the trace.
pub type OpKey = u32;

/// One journal record: the intent is appended *before* the operation
/// is applied, the done marker after it completed.
#[derive(Clone, Debug)]
pub enum JournalRecord {
    /// About to apply this operation.
    Intent {
        /// Transaction key.
        key: OpKey,
        /// The operation, verbatim.
        op: TraceOp,
    },
    /// The operation with this key completed with this outcome.
    Done {
        /// Transaction key.
        key: OpKey,
        /// What the operation returned.
        outcome: TraceOutcome,
    },
}

// One record per intent and per completion of every trace op.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<JournalRecord>() <= 32);

/// The write-ahead journal of the admission service's owner.
///
/// When disabled (the negative-control configuration) every append is
/// dropped, so a crashed owner restarts from the empty manager and the
/// differential harness observes the lost state.
#[derive(Clone, Debug, Default)]
pub struct IntentJournal {
    enabled: bool,
    records: Vec<JournalRecord>,
}

impl IntentJournal {
    /// A journal; `enabled = false` turns every append into a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        IntentJournal {
            enabled,
            records: Vec::new(),
        }
    }

    /// Appends one record (no-op when disabled). Callers append the
    /// intent **before** acting and the done marker after.
    pub fn append(&mut self, record: JournalRecord) {
        if self.enabled {
            self.records.push(record);
        }
    }

    /// The records in append order.
    #[must_use]
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The dangling intent at the tail — the operation a crash
    /// interrupted — if the last record is an intent.
    #[must_use]
    pub fn dangling(&self) -> Option<&TraceOp> {
        match self.records.last()? {
            JournalRecord::Intent { op, .. } => Some(op),
            JournalRecord::Done { .. } => None,
        }
    }

    /// Whether the journal is the exactly-once witness of a run over
    /// `ops` operations: one intent and one done marker per operation,
    /// each done marker right after its own intent, in trace order.
    /// A retry that executed twice, or an operation that never
    /// completed, breaks the pattern.
    #[must_use]
    pub fn is_exactly_once(&self, ops: usize) -> bool {
        self.records.len() == 2 * ops
            && self.records.chunks(2).enumerate().all(|(i, pair)| {
                matches!(
                    pair,
                    [JournalRecord::Intent { key: a, .. }, JournalRecord::Done { key: b, .. }]
                        if *a as usize == i && *b as usize == i
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intent(key: OpKey) -> JournalRecord {
        JournalRecord::Intent {
            key,
            op: TraceOp::Teardown(key),
        }
    }

    fn done(key: OpKey) -> JournalRecord {
        JournalRecord::Done {
            key,
            outcome: TraceOutcome::TornDown(false),
        }
    }

    #[test]
    fn disabled_journal_drops_appends() {
        let mut j = IntentJournal::new(false);
        j.append(intent(0));
        assert!(j.is_empty());
        assert!(j.dangling().is_none());
    }

    #[test]
    fn dangling_intent_is_the_unfinished_tail() {
        let mut j = IntentJournal::new(true);
        j.append(intent(0));
        assert!(matches!(j.dangling(), Some(TraceOp::Teardown(0))));
        j.append(done(0));
        assert!(j.dangling().is_none(), "done marker closes the intent");
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn exactly_once_witness_rejects_repeats_and_gaps() {
        let mut j = IntentJournal::new(true);
        for key in 0..3 {
            j.append(intent(key));
            j.append(done(key));
        }
        assert!(j.is_exactly_once(3));
        assert!(!j.is_exactly_once(4), "an operation never completed");
        j.append(intent(2));
        j.append(done(2));
        assert!(!j.is_exactly_once(4), "operation 2 executed twice");
    }
}

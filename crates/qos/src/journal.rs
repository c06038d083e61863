//! The per-shard write-ahead intent journal: what makes a shard crash
//! survivable.
//!
//! A shard owns its table partition **in memory**; a crash (simulated
//! by the control-plane fault engine in [`crate::service`]) loses the
//! tables, the idempotency cache — everything volatile. The journal is
//! the one durable artifact: before a shard mutates anything it
//! appends an *intent* record, and after the mutation completes it
//! appends the matching *done* record. On supervised restart the shard
//! replays the journal against a fresh empty partition:
//!
//! * every `…Intent`/`…Done` pair is re-applied in order (the redo
//!   log — all table mutations are deterministic, so the rebuilt
//!   partition is byte-identical to the crash-free one);
//! * a dangling intent at the tail (the transaction interrupted by the
//!   crash) is deterministically **rolled forward**: the coordinator
//!   had already decided commit-vs-abort before sending the message,
//!   so completing the recorded intent is always the correct
//!   resolution — a half-committed batch finishes committing, a
//!   half-rolled-back batch finishes rolling back;
//! * vote records rebuild the reply cache, so a retried message whose
//!   reply was lost in the crash is answered from the cache instead of
//!   being re-executed (exactly-once effect per idempotency key).
//!
//! Records are keyed by [`OpKey`] — the request **epoch** (bumped by
//! every table-wide repair, which invalidates live handles) plus the
//! trace **op index**. Retries reuse the key, which is what makes a
//! re-delivered Commit a cache hit rather than a double reservation.
//!
//! The journal is an in-memory `Vec` here (the workspace has no
//! persistence layer), but the discipline is the real one: append
//! before acting, replay on restart, idempotency keys for retry
//! dedup.

use crate::cac::PortKey;
use crate::connection::HopReservation;
use crate::service::AdmitSpec;
use iba_core::{TableError, Weight};
use std::collections::BTreeMap;

/// Idempotency key of one protocol transaction: `(epoch, op index)`.
///
/// The epoch increments on every finalized repair drill (which
/// invalidates all live connection handles); the op index is the trace
/// position, unique within a run. A retry re-sends the same key.
pub type OpKey = (u32, u32);

/// One journal record. Intents are appended *before* the mutation they
/// describe; done markers after it completed. `Voted` is single-shot
/// (voting never mutates) and exists to rebuild the reply cache.
#[derive(Clone, Debug)]
pub enum JournalRecord {
    /// The shard computed these per-hop votes (non-mutating).
    Voted {
        /// Transaction key.
        key: OpKey,
        /// `(path index, exact admission result)` per owned hop.
        votes: Vec<(usize, Result<(), TableError>)>,
    },
    /// About to reserve the owned hops of an admission, in ascending
    /// path order.
    CommitIntent {
        /// Transaction key.
        key: OpKey,
        /// The admission parameters every hop shares.
        spec: AdmitSpec,
        /// `(path index, port)` in ascending path order.
        hops: Vec<(usize, PortKey)>,
    },
    /// The commit above fully applied.
    CommitDone {
        /// Transaction key.
        key: OpKey,
    },
    /// About to replay the sequential rollback: admit owned hops below
    /// `fail_at`, re-run the failing admission, release in descending
    /// order.
    AbortIntent {
        /// Transaction key.
        key: OpKey,
        /// The admission parameters every hop shares.
        spec: AdmitSpec,
        /// `(path index, port)` in ascending path order.
        hops: Vec<(usize, PortKey)>,
        /// First failing path index (hops at or above it stay
        /// untouched, except the mutation-faithful re-probe at it).
        fail_at: usize,
    },
    /// The abort above fully applied.
    AbortDone {
        /// Transaction key.
        key: OpKey,
    },
    /// About to release the owned hops of a teardown (descending path
    /// order).
    ReleaseIntent {
        /// Transaction key.
        key: OpKey,
        /// Per-hop reserved weight.
        weight: Weight,
        /// `(path index, reservation)` in ascending path order.
        hops: Vec<(usize, HopReservation)>,
    },
    /// The release above fully applied.
    ReleaseDone {
        /// Transaction key.
        key: OpKey,
    },
    /// About to corrupt-and-repair every owned table (the repair
    /// drill), with the given seed.
    RepairIntent {
        /// Transaction key.
        key: OpKey,
        /// Seed of the keyed corruption/repair streams.
        seed: u64,
    },
    /// The repair above fully applied.
    RepairDone {
        /// Transaction key.
        key: OpKey,
    },
}

impl JournalRecord {
    /// The transaction key of this record.
    #[must_use]
    pub fn key(&self) -> OpKey {
        match self {
            JournalRecord::Voted { key, .. }
            | JournalRecord::CommitIntent { key, .. }
            | JournalRecord::CommitDone { key }
            | JournalRecord::AbortIntent { key, .. }
            | JournalRecord::AbortDone { key }
            | JournalRecord::ReleaseIntent { key, .. }
            | JournalRecord::ReleaseDone { key }
            | JournalRecord::RepairIntent { key, .. }
            | JournalRecord::RepairDone { key } => *key,
        }
    }

    /// True for the `…Done` completion markers.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(
            self,
            JournalRecord::CommitDone { .. }
                | JournalRecord::AbortDone { .. }
                | JournalRecord::ReleaseDone { .. }
                | JournalRecord::RepairDone { .. }
        )
    }
}

/// The write-ahead intent journal of one shard.
///
/// When disabled (the negative-control configuration) every append is
/// dropped, so a crashed shard restarts from an empty partition and
/// the differential harness observes the lost reservations.
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

    /// Whether appends are being retained.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one record (no-op when disabled). Callers append the
    /// intent **before** mutating and the done marker after.
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

    /// `CommitDone` markers per transaction key — the exactly-once
    /// ledger's raw material: a key appearing more than once on one
    /// shard is a double reservation.
    #[must_use]
    pub fn commit_done_counts(&self) -> BTreeMap<OpKey, u32> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            if let JournalRecord::CommitDone { key } = r {
                *out.entry(*key).or_insert(0) += 1;
            }
        }
        out
    }

    /// The dangling intent at the tail — the transaction a crash
    /// interrupted — if the last intent has no matching done marker.
    #[must_use]
    pub fn dangling(&self) -> Option<&JournalRecord> {
        let last = self.records.last()?;
        match last {
            JournalRecord::CommitIntent { .. }
            | JournalRecord::AbortIntent { .. }
            | JournalRecord::ReleaseIntent { .. }
            | JournalRecord::RepairIntent { .. } => Some(last),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit_intent(key: OpKey) -> JournalRecord {
        JournalRecord::CommitIntent {
            key,
            spec: AdmitSpec::test_default(),
            hops: Vec::new(),
        }
    }

    #[test]
    fn disabled_journal_drops_appends() {
        let mut j = IntentJournal::new(false);
        j.append(commit_intent((0, 1)));
        assert!(j.is_empty());
        assert!(!j.enabled());
        assert!(j.dangling().is_none());
    }

    #[test]
    fn dangling_intent_is_the_unfinished_tail() {
        let mut j = IntentJournal::new(true);
        j.append(commit_intent((0, 1)));
        assert!(matches!(
            j.dangling(),
            Some(JournalRecord::CommitIntent { key: (0, 1), .. })
        ));
        j.append(JournalRecord::CommitDone { key: (0, 1) });
        assert!(j.dangling().is_none(), "done marker closes the intent");
        j.append(JournalRecord::Voted {
            key: (0, 2),
            votes: Vec::new(),
        });
        assert!(j.dangling().is_none(), "votes never dangle (non-mutating)");
    }

    #[test]
    fn commit_done_counts_expose_duplicates() {
        let mut j = IntentJournal::new(true);
        for key in [(0, 1), (0, 2), (0, 1)] {
            j.append(commit_intent(key));
            j.append(JournalRecord::CommitDone { key });
        }
        let counts = j.commit_done_counts();
        assert_eq!(counts.get(&(0, 1)), Some(&2), "duplicate visible");
        assert_eq!(counts.get(&(0, 2)), Some(&1));
        assert_eq!(j.len(), 6);
        assert_eq!(j.records().iter().filter(|r| r.is_done()).count(), 3);
        assert_eq!(j.records()[0].key(), (0, 1));
    }
}

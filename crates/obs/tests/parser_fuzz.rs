//! Seeded mutation fuzzing of the parsers that take outside input: the
//! text parsers [`Json::parse`] and [`SloSpec::parse`], and the binary
//! trace-record decoder [`TraceEvent::decode`].
//!
//! Each loop mutates a corpus of valid inputs with byte flips,
//! truncations and splices (a SplitMix64 stream, no external crates)
//! and feeds 100,000 of them to the parser. Any input is allowed to be
//! rejected; none may panic.

use iba_obs::{Json, RejectKind, ServedKind, SloSpec, TraceEvent, RECORD_BYTES};
use std::panic::{catch_unwind, AssertUnwindSafe};

const INPUTS: usize = 100_000;

/// SplitMix64 (Steele, Lea, Flood 2014).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One mutation of a corpus entry: a few byte flips, a truncation, or
/// a splice of two entries.
fn mutate(rng: &mut SplitMix64, corpus: &[&str]) -> Vec<u8> {
    let mut bytes = corpus[rng.below(corpus.len())].as_bytes().to_vec();
    match rng.below(3) {
        0 => {
            for _ in 0..=rng.below(4) {
                if bytes.is_empty() {
                    break;
                }
                let i = rng.below(bytes.len());
                // Half the flips write a byte some parser branch
                // cares about.
                let picks = b"{}[]():;,.\"\\=-+eE0u \x00\xff";
                bytes[i] = if rng.below(2) == 0 {
                    bytes[i] ^ (1 << rng.below(8))
                } else {
                    picks[rng.below(picks.len())]
                };
            }
        }
        1 => bytes.truncate(rng.below(bytes.len() + 1)),
        _ => {
            let other = corpus[rng.below(corpus.len())].as_bytes();
            let cut = rng.below(bytes.len() + 1);
            let from = rng.below(other.len() + 1);
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[from..]);
        }
    }
    bytes
}

/// Feeds `INPUTS` mutations of `corpus` to `parse`; panics naming the
/// first input that made the parser panic. Returns how many inputs the
/// parser accepted.
fn fuzz(seed: u64, corpus: &[&str], parse: impl Fn(&str) -> bool) -> usize {
    for valid in corpus {
        assert!(parse(valid), "corpus entry rejected: {valid:?}");
    }
    let mut rng = SplitMix64(seed);
    let mut accepted = 0;
    for i in 0..INPUTS {
        let bytes = mutate(&mut rng, corpus);
        let text = String::from_utf8_lossy(&bytes);
        match catch_unwind(AssertUnwindSafe(|| parse(&text))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("input {i} panicked the parser: {text:?}"),
        }
    }
    accepted
}

#[test]
fn json_parse_survives_100k_mutated_inputs() {
    let corpus = [
        r#"{"suite": "cac", "results": [{"name": "cac/serve", "iters": 893, "ns_per_op": 1.0e3}]}"#,
        r#"[null, true, false, -0, 12, -3.5e-2, 1E+9, 9223372036854775808]"#,
        r#"{"s": "esc \" \\ \/ \b \f \n \r \t é \ud800 é ü 😀", "e": {}, "a": []}"#,
        r#"{"traceEvents": [{"ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 0, "args": {"k": [1, [2, [3]]]}}]}"#,
        "  \"bare string\"  ",
        "-12345678901234567890",
    ];
    let accepted = fuzz(0x00F0_22ED, &corpus, |text| Json::parse(text).is_ok());
    assert!(accepted > 1_000, "mutations kept some inputs valid");
}

#[test]
fn slo_spec_parse_survives_100k_mutated_inputs() {
    let corpus = [
        "p99(alloc_probe_depth) <= 64",
        "rate(cac_reject_total{reason=capacity_exceeded}) == 0",
        "rate(sim_events_total) >= 1 burn 0.5",
        "p50(sim_event_queue_depth) <= 9000; rate(qos_deadline_miss_total{sl=3}) == 0 burn 0",
        " ; p99(x{a = b}) >= 18446744073709551615 burn 1.0 ;",
    ];
    let accepted = fuzz(0x5105_EED5, &corpus, |text| SloSpec::parse(text).is_ok());
    assert!(accepted > 1_000, "mutations kept some inputs valid");
}

/// Nesting deep enough to overflow a recursive parser's stack is
/// rejected instead.
#[test]
fn json_parse_rejects_runaway_nesting() {
    for open in ["[", "{\"k\":"] {
        let deep = open.repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }
    let nested = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(Json::parse(&nested).is_ok(), "128 levels still parse");
    let deeper = format!("{}{}", "[".repeat(129), "]".repeat(129));
    assert!(Json::parse(&deeper).is_err());
}

/// Inputs the fuzz loop found panicking, kept as fixed regressions.
#[test]
fn inputs_that_once_panicked_are_rejected() {
    for bad in [
        "rate(c0c_reject_to}al{reason=capacity_exceeded}) == 0",
        "rate(x}{) == 0",
    ] {
        assert!(SloSpec::parse(bad).is_err(), "accepted `{bad}`");
    }
}

/// Random and mutated 16-byte records: the decoder never panics, and
/// every record it accepts re-encodes to an equal event, so
/// `decode(encode(t, e)) == Some((t, e))` for each accepted `(t, e)`.
#[test]
fn trace_decode_survives_100k_random_and_mutated_records() {
    let corpus = [
        TraceEvent::Grant {
            vl: 3,
            bytes: 4096,
            served: ServedKind::Low,
        },
        TraceEvent::AuditViolation {
            vl: 1,
            gap_slots: 70,
            budget_slots: 8,
        },
        TraceEvent::Reject {
            reason: RejectKind::CapacityExceeded,
        },
        TraceEvent::AllocSelect {
            depth: 30,
            found: true,
        },
        TraceEvent::Request {
            rid: 9,
            stage: 2,
            shard: 0,
            path: 4,
        },
        TraceEvent::Serve {
            code: 1,
            shard: 0,
            detail: 12,
        },
    ]
    .map(|e| e.encode(123_456));
    let mut rng = SplitMix64(0x7ACE_DEC0);
    let mut accepted = 0;
    for i in 0..INPUTS {
        let mut buf = [0u8; RECORD_BYTES];
        if rng.below(2) == 0 {
            buf.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
            // Keep half the random kinds in (and just past) the known
            // range so every decode arm sees garbage fields.
            if rng.below(2) == 0 {
                buf[8] = rng.below(13) as u8;
            }
        } else {
            buf = corpus[rng.below(corpus.len())];
            for _ in 0..=rng.below(4) {
                buf[rng.below(RECORD_BYTES)] ^= 1 << rng.below(8);
            }
        }
        let decoded = catch_unwind(|| TraceEvent::decode(&buf))
            .unwrap_or_else(|_| panic!("record {i} panicked the decoder: {buf:02x?}"));
        if let Some((t, e)) = decoded {
            accepted += 1;
            assert_eq!(
                TraceEvent::decode(&e.encode(t)),
                Some((t, e)),
                "record {i} does not round-trip: {buf:02x?}"
            );
        }
    }
    assert!(accepted > 10_000, "only {accepted} records decoded");
}

//! Seeded mutation fuzzing of the command-line parser, [`Args::parse`].
//!
//! The loop mutates a corpus of valid argument vectors with token
//! swaps, insertions, drops, byte flips, truncations and splices (a
//! SplitMix64 stream, no external crates) and feeds 100,000 of them to
//! the parser. Any vector may be rejected; none may panic, and every
//! accepted one must build its simulator configuration without
//! panicking.

use iba_cli::Args;
use iba_sim::SimConfig;
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

const CORPUS: &[&str] = &[
    "fill --switches 2 --mtu 1024",
    "run --switches 16 --seed 7 --mtu 4096 --steady-packets 30 --background",
    "sweep --seeds 8 --threads 2 --switches 4 --perfetto s.json",
    "trace --limit 0 --mtu 2048",
    "audit --allocator first-fit --mtu 4096 --slo rate(audit_violations_total)==0",
    "chaos --allocator reverse-fit --rounds 5 --seeds 2 --flight-dir out",
    "serve --switches 4 --seed 3 --requests 40 --replay --window 16",
    "chaos-serve --switches 4 --seed 7 --requests 48 --no-journal",
    "timeline --switches 4 --seed 11 --seeds 3 --window 2048 --json",
    "report --prom --switches 4",
    "topo --dot",
    "demo",
    "help",
];

/// Tokens a mutation may write: flags and commands, edge-case numbers,
/// and junk.
const PICKS: &[&str] = &[
    "--mtu",
    "--switches",
    "--seed",
    "--seeds",
    "--window",
    "--limit",
    "--threads",
    "--rounds",
    "--requests",
    "--allocator",
    "--perfetto",
    "--slo",
    "--flight-dir",
    "--steady-packets",
    "--background",
    "--no-journal",
    "run",
    "chaos-serve",
    "0",
    "1",
    "-1",
    "512",
    "4096",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "",
    "-",
    "--",
    "bit-reversal",
    "é",
];

fn words(s: &str) -> Vec<String> {
    s.split(' ').map(String::from).collect()
}

/// One mutation of a corpus entry: one to three token edits.
fn mutate(rng: &mut SplitMix64) -> Vec<String> {
    let mut argv = words(CORPUS[rng.below(CORPUS.len())]);
    for _ in 0..=rng.below(3) {
        let at = rng.below(argv.len() + 1);
        let pick = PICKS[rng.below(PICKS.len())].to_string();
        match rng.below(6) {
            0 if at < argv.len() => argv[at] = pick,
            1 => argv.insert(at, pick),
            2 if at < argv.len() => {
                argv.remove(at);
            }
            3 if at < argv.len() => {
                let mut bytes = argv[at].clone().into_bytes();
                if !bytes.is_empty() {
                    let i = rng.below(bytes.len());
                    bytes[i] ^= 1 << rng.below(8);
                }
                argv[at] = String::from_utf8_lossy(&bytes).into_owned();
            }
            4 => argv.truncate(at),
            _ => {
                let other = words(CORPUS[rng.below(CORPUS.len())]);
                let from = rng.below(other.len() + 1);
                argv.truncate(at);
                argv.extend_from_slice(&other[from..]);
            }
        }
    }
    argv
}

#[test]
fn args_parse_survives_100k_mutated_argv() {
    for valid in CORPUS {
        assert!(
            Args::parse(&words(valid)).is_ok(),
            "corpus entry rejected: {valid:?}"
        );
    }
    let mut rng = SplitMix64(0xA4C5_F022);
    let mut accepted = 0;
    for i in 0..INPUTS {
        let argv = mutate(&mut rng);
        let parsed = catch_unwind(AssertUnwindSafe(|| Args::parse(&argv)))
            .unwrap_or_else(|_| panic!("input {i} panicked the parser: {argv:?}"));
        if let Ok(args) = parsed {
            accepted += 1;
            catch_unwind(|| SimConfig::paper_default(args.mtu))
                .unwrap_or_else(|_| panic!("input {i} parsed to an unusable MTU: {argv:?}"));
        }
    }
    assert!(accepted > 1_000, "mutations kept some inputs valid");
}

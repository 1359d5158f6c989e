//! Seeded input generation.
//!
//! The benchmark makes its own inputs from `--seed` with its own generator,
//! so the operation stream does not change when the program's generators or
//! its vendored `rand` change. Every database is produced as text in the
//! repository's graph format (`source label target [multiplicity]`): that
//! text is exactly what a client would send.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that each input
    /// family draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The four scaling families of the paper's tractable classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// `ax*b` on a layered flow network (local language, Theorem 3.13).
    AxStarB,
    /// `ab|ad|cd` on a layered graph (local language, Theorem 3.13).
    AbAdCd,
    /// `ab|bc` on a random graph (bipartite chain, Proposition 7.6).
    AbBc,
    /// `abc|be` on a random graph (one-dangling, Proposition 7.9).
    AbcBe,
}

impl Family {
    pub const ALL: [Family; 4] = [Family::AxStarB, Family::AbAdCd, Family::AbBc, Family::AbcBe];

    pub fn pattern(self) -> &'static str {
        match self {
            Family::AxStarB => "ax*b",
            Family::AbAdCd => "ab|ad|cd",
            Family::AbBc => "ab|bc",
            Family::AbcBe => "abc|be",
        }
    }

    /// A database of this family at size step `size`, shaped like the
    /// repository's scaling workloads (`rpq_bench::workloads`): `ax*b` and
    /// the random graphs have about `size` facts, the layered `ab|ad|cd`
    /// graph about `5/6 size` (420 facts at step 512, 3410 at step 4096).
    pub fn database(self, size: usize, rng: &mut Rng) -> String {
        match self {
            Family::AxStarB => flow_network(size, rng),
            Family::AbAdCd => layered(size, "abcd", rng),
            Family::AbBc => random_graph(size, "abc", rng),
            Family::AbcBe => random_graph(size, "abce", rng),
        }
    }
}

/// A multi-source multi-sink flow network for `ax*b`: 8 layers of `width`
/// nodes, two random `x` successors per node, `a` facts from a super source
/// into layer 0 and `b` facts from the last layer into a super sink, each
/// with a multiplicity in `1..=16`.
fn flow_network(size: usize, rng: &mut Rng) -> String {
    const LAYERS: usize = 8;
    const OUT_DEGREE: usize = 2;
    let width = (size / (LAYERS * OUT_DEGREE)).max(1);
    let mut out = String::new();
    let mut seen = BTreeSet::new();
    for i in 0..width {
        let _ = writeln!(out, "source a l0_{i} {}", 1 + rng.below(16));
        let _ = writeln!(out, "l{}_{i} b sink {}", LAYERS - 1, 1 + rng.below(16));
    }
    for layer in 0..LAYERS - 1 {
        for i in 0..width {
            for _ in 0..OUT_DEGREE {
                let j = rng.below(width);
                let multiplicity = 1 + rng.below(16);
                if seen.insert((layer, i, j)) {
                    let _ = writeln!(out, "l{layer}_{i} x l{}_{j} {multiplicity}", layer + 1);
                }
            }
        }
    }
    out
}

/// A layered graph: 6 layers of `size / 12` nodes, two random successors
/// per node, each edge labeled by a random letter of `letters`.
fn layered(size: usize, letters: &str, rng: &mut Rng) -> String {
    const LAYERS: usize = 6;
    const OUT_DEGREE: usize = 2;
    let letters: Vec<char> = letters.chars().collect();
    let width = (size / (LAYERS * OUT_DEGREE)).max(1);
    let mut out = String::new();
    let mut seen = BTreeSet::new();
    for layer in 0..LAYERS - 1 {
        for i in 0..width {
            for _ in 0..OUT_DEGREE {
                let j = rng.below(width);
                let letter = letters[rng.below(letters.len())];
                if seen.insert((layer, i, letter, j)) {
                    let _ = writeln!(out, "l{layer}_{i} {letter} l{}_{j}", layer + 1);
                }
            }
        }
    }
    out
}

/// A uniformly random graph over `size / 3` nodes with `size` attempted
/// facts labeled by `letters` (duplicates are dropped).
fn random_graph(size: usize, letters: &str, rng: &mut Rng) -> String {
    let letters: Vec<char> = letters.chars().collect();
    let nodes = (size / 3).max(2);
    let mut out = String::new();
    let mut seen = BTreeSet::new();
    for _ in 0..size {
        let (u, v) = (rng.below(nodes), rng.below(nodes));
        let letter = letters[rng.below(letters.len())];
        if seen.insert((u, letter, v)) {
            let _ = writeln!(out, "n{u} {letter} n{v}");
        }
    }
    out
}

/// The `(source, label, target)` triple of every fact line of `text`.
pub fn fact_keys(text: &str) -> Vec<(String, char, String)> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let source = parts.next()?;
            let label = parts.next()?.chars().next()?;
            let target = parts.next()?;
            Some((source.to_string(), label, target.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn databases_have_about_the_requested_size_and_parse() {
        let mut rng = Rng::new(7, 0);
        for family in Family::ALL {
            let text = family.database(512, &mut rng);
            let db = rpq_graphdb::text::parse(&text).expect("generated text parses");
            let facts = db.num_facts();
            assert!((400..=560).contains(&facts), "{family:?}: {facts} facts");
            assert_eq!(facts, fact_keys(&text).len(), "{family:?}: no duplicate facts");
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = Family::AbAdCd.database(300, &mut Rng::new(1, 3));
        let b = Family::AbAdCd.database(300, &mut Rng::new(1, 3));
        let c = Family::AbAdCd.database(300, &mut Rng::new(2, 3));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

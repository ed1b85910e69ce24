//! Seeded input generation. Every input file the program sees is
//! written here from the benchmark seed; the program receives only
//! these files.
//!
//! Circuits come from the fixture recipe
//! (`bench_harness::solver_bench::generated_circuit`, whose generator
//! seed is the gate count) and are pinned by digest. The benchmark
//! seed never changes a circuit: at 10k gates the recipe's cost moves
//! 1.8–13.9 s across generator seeds (§V init is circuit-dependent),
//! which no bound of this benchmark could absorb. It chooses what does
//! not change the size of the work: the fault-injection campaign seed,
//! and which circuits the serve hits ask for, in which order.

use std::io;
use std::path::{Path, PathBuf};

use bench_harness::solver_bench::generated_circuit;
use netlist::digest::{content_digest, format_digest};
use netlist::rng::Xoshiro256;
use netlist::{bench_format, Circuit};

/// Pinned content digest (FNV-1a over the file bytes) of every input
/// circuit, by gate count. Two commits compare only on identical
/// inputs, so a run whose inputs drift from these fails.
const PINNED: [(usize, u64); 6] = [
    (1000, 0x2326_18f6_ea66_aa5d),
    (1500, 0xf068_81b2_f70f_e1d7),
    (2000, 0x351d_001d_c5f0_1081),
    (2500, 0xe543_b0cb_4190_80fe),
    (3000, 0x6698_5401_edc5_92d8),
    (4000, 0x1f43_c00c_5ada_7574),
];

/// Gate counts of the serve pool, from 1k to 4k gates.
pub const SERVE_POOL_GATES: [usize; 6] = [1000, 1500, 2000, 2500, 3000, 4000];

/// Same-config resubmissions (result-cache hits) per serve round.
pub const SERVE_HITS_PER_ROUND: usize = 60;

/// The fixture-recipe circuit at `gates`, named like the committed
/// fixtures (`generated_10k`, `generated_1500`).
fn fixture_circuit(gates: usize) -> Circuit {
    let mut c = generated_circuit(gates);
    c.set_name(format!("generated_{}", bench_harness::gates_label(gates)));
    c
}

/// Writes the fixture-recipe circuit at `gates` as
/// `<dir>/<name>.bench` and checks it against its pinned digest.
///
/// # Errors
///
/// An I/O failure, or bytes that drifted from the pinned digest.
pub fn fixture(dir: &Path, gates: usize) -> io::Result<PathBuf> {
    let circuit = fixture_circuit(gates);
    let path = dir.join(format!("{}.bench", circuit.name()));
    let text = bench_format::write(&circuit);
    let mut file = std::fs::File::create(&path)?;
    std::io::Write::write_all(&mut file, text.as_bytes())?;
    // Flushed to disk now, so its write-back does not land inside a
    // measured spawn.
    file.sync_all()?;
    let digest = content_digest(text.as_bytes());
    let pinned = PINNED.iter().find(|&&(g, _)| g == gates).map(|&(_, d)| d);
    if pinned != Some(digest) {
        return Err(io::Error::other(format!(
            "input {} drifted: digest {}, pinned {}",
            path.display(),
            format_digest(digest),
            pinned.map_or("none".into(), format_digest)
        )));
    }
    Ok(path)
}

/// The fault-sim campaign seed for a benchmark seed.
pub fn campaign_seed(seed: u64) -> u64 {
    Xoshiro256::seed_from_u64(seed ^ 0xFA17_5EED).next_u64() >> 1
}

/// Which cache path a serve submission exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// First submission of a circuit: writes all three cache stages.
    Fresh,
    /// Same circuit, same config: a result-cache read.
    Hit,
    /// Same circuit, the other method: netlist and levels reads, a
    /// recompute and a result write.
    OtherMethod,
}

/// One planned serve submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Index into the pool.
    pub circuit: usize,
    /// The cache path it takes.
    pub kind: Kind,
}

impl Submission {
    /// The protocol method name the submission asks for.
    pub fn method(&self) -> &'static str {
        match self.kind {
            Kind::OtherMethod => "minobs",
            Kind::Fresh | Kind::Hit => "minobswin",
        }
    }
}

/// The submissions of serve round `round`, in order. First the
/// computing jobs, largest circuit first: every pool circuit fresh,
/// then every circuit with the other method. Then
/// [`SERVE_HITS_PER_ROUND`] same-config resubmissions, their circuits
/// and order drawn from the seed and the round. The client sends the
/// hits only once every computing job is done, so a hit never queues
/// behind a solve and the misses' packing onto the workers does not
/// depend on the seed.
pub fn serve_plan(seed: u64, round: usize, pool: usize) -> Vec<Submission> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5E7E_0001 ^ ((round as u64) << 40));
    let computing = [Kind::Fresh, Kind::OtherMethod]
        .into_iter()
        .flat_map(|kind| {
            (0..pool)
                .rev()
                .map(move |circuit| Submission { circuit, kind })
        });
    let hits = (0..SERVE_HITS_PER_ROUND).map(|_| Submission {
        circuit: rng.gen_range(pool),
        kind: Kind::Hit,
    });
    computing.chain(hits).collect()
}

/// Writes the serve pool; returns the file paths in pool order.
///
/// # Errors
///
/// An I/O failure.
pub fn serve_pool(dir: &Path) -> io::Result<Vec<PathBuf>> {
    SERVE_POOL_GATES.iter().map(|&g| fixture(dir, g)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn the_recipe_reproduces_the_committed_10k_fixture() {
        // Pinned digest of `tests/fixtures/generated_10k.bench`: the
        // inputs come from the recipe the committed fixture caches.
        let text = bench_format::write(&fixture_circuit(10_000));
        assert_eq!(content_digest(text.as_bytes()), 0x42e9_6a97_72fc_e9fe);
    }

    #[test]
    fn a_drifted_input_is_refused() {
        let dir = scratch("drift");
        assert!(fixture(&dir, 1000).is_ok());
        // 1200 gates has no pinned digest, like any recipe drift.
        assert!(fixture(&dir, 1200).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let (a, b) = (scratch("a"), scratch("b"));
        let pa = serve_pool(&a).unwrap();
        let pb = serve_pool(&b).unwrap();
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(std::fs::read(x).unwrap(), std::fs::read(y).unwrap());
        }
        assert_eq!(serve_plan(7, 0, 6), serve_plan(7, 0, 6));
        assert_eq!(campaign_seed(7), campaign_seed(7));
        assert_ne!(serve_plan(7, 0, 6), serve_plan(8, 0, 6));
        assert_ne!(serve_plan(7, 0, 6), serve_plan(7, 1, 6));
        assert_ne!(campaign_seed(7), campaign_seed(8));
        std::fs::remove_dir_all(a).unwrap();
        std::fs::remove_dir_all(b).unwrap();
    }

    #[test]
    fn every_plan_has_the_same_computing_jobs_first() {
        for seed in 0..20 {
            let plan = serve_plan(seed, seed as usize % 3, 6);
            assert_eq!(plan.len(), 12 + SERVE_HITS_PER_ROUND);
            let fresh: Vec<_> = plan[..6].iter().map(|s| (s.circuit, s.kind)).collect();
            assert_eq!(
                fresh,
                (0..6).rev().map(|c| (c, Kind::Fresh)).collect::<Vec<_>>()
            );
            let other: Vec<_> = plan[6..12].iter().map(|s| (s.circuit, s.kind)).collect();
            assert_eq!(
                other,
                (0..6)
                    .rev()
                    .map(|c| (c, Kind::OtherMethod))
                    .collect::<Vec<_>>()
            );
            assert!(plan[12..]
                .iter()
                .all(|s| s.kind == Kind::Hit && s.circuit < 6));
        }
    }
}

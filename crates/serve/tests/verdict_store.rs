//! The persistent verdict store at scale: a store of a long-running
//! service's size saves and restores in time linear in its size, and
//! the restored cache serves every verdict without re-evaluation.
//!
//! ```text
//! cargo test --release --offline -p ecripse-serve --test verdict_store -- --nocapture
//! ```
//!
//! prints the measured save and load times.

use ecripse_core::bench::{LinearBench, Testbench};
use ecripse_core::cache::MemoCacheConfig;
use ecripse_serve::shared::{SharedBench, VerdictCache};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENTRIES: usize = 20_000;
const TAGS: u64 = 4;
/// Far above the linear decoder's cost in a debug build (about 0.3 s)
/// and far below the quadratic one it replaced (over 40 s).
const LOAD_BUDGET: Duration = Duration::from_secs(5);

/// Distinct 6-D query points spread over ±4σ, so the quantised keys
/// carry as many digits as real ones.
fn points(n: usize) -> Vec<Vec<f64>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            (0..6)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
                })
                .collect()
        })
        .collect()
}

#[test]
fn twenty_thousand_entry_store_restores_within_budget() {
    let bench = LinearBench::new(vec![1.0, 0.5, 0.0, 0.0, -0.5, 0.0], 1.0);
    let store = Arc::new(VerdictCache::new(MemoCacheConfig::default()));
    let zs = points(ENTRIES);
    let per_tag = ENTRIES / TAGS as usize;
    let mut expected = Vec::with_capacity(ENTRIES);
    for (tag, chunk) in (1..=TAGS).zip(zs.chunks(per_tag)) {
        let shared = SharedBench::new(bench.clone(), tag, Arc::clone(&store), true);
        expected.push(shared.fails_batch(chunk));
    }
    assert_eq!(store.len(), ENTRIES, "every point is a distinct key");

    let dir = std::env::temp_dir().join(format!("ecripse-verdict-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("verdicts.json");
    let started = Instant::now();
    let saved = store.save_snapshot(&path).expect("save snapshot");
    let save_time = started.elapsed();
    let bytes = std::fs::metadata(&path).expect("snapshot metadata").len();

    let restored = Arc::new(VerdictCache::new(MemoCacheConfig::default()));
    let started = Instant::now();
    let loaded = restored.load_snapshot(&path).expect("load snapshot");
    let load_time = started.elapsed();
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "verdict store: {saved} entries, {bytes} bytes, saved in {:.3} s, loaded in {:.3} s",
        save_time.as_secs_f64(),
        load_time.as_secs_f64()
    );

    assert_eq!(saved, ENTRIES);
    assert_eq!(loaded, ENTRIES);
    assert_eq!(restored.len(), ENTRIES);
    assert!(
        load_time < LOAD_BUDGET,
        "loading {ENTRIES} entries took {load_time:?}, budget {LOAD_BUDGET:?}"
    );
    // Every restored verdict is served from the store, and matches.
    for ((tag, chunk), verdicts) in (1..=TAGS).zip(zs.chunks(per_tag)).zip(&expected) {
        let warm = SharedBench::new(bench.clone(), tag, Arc::clone(&restored), true);
        assert_eq!(&warm.fails_batch(chunk), verdicts);
    }
    assert_eq!(restored.hits(), ENTRIES as u64);
    assert_eq!(restored.misses(), 0);
}

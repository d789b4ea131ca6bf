//! Multi-process sharding of one corpus, demonstrated in one process:
//! split a sweep into N job ranges (`Corpus::shard_range`), solve each
//! independently with `solve_range` (in real use: one process per shard,
//! on different machines), ship the compact `PartReport` snapshots as
//! bytes, warm-start later shards from earlier ones' prep caches
//! (`PrepCache::save_to` / `load_into`), and merge — the merged
//! aggregation is identical to the single-process run, timings aside.
//!
//! Run with `cargo run --release --example shard_merge [shards]`.

use dapc::prelude::*;

fn main() {
    let shards: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    let corpus = Corpus::builder()
        .instance(
            "MIS/gnp36",
            problems::max_independent_set_unweighted(&gen::gnp(36, 0.08, &mut gen::seeded_rng(7))),
        )
        .instance(
            "VC/cycle30",
            problems::min_vertex_cover_unweighted(&gen::cycle(30)),
        )
        .backend("three-phase")
        .backend("greedy")
        .eps_grid([0.2, 0.3])
        .seeds(0..4)
        .build();
    let rt = RuntimeConfig::new().jobs(2);
    println!("corpus: {} jobs, split {shards} ways\n", corpus.len());

    // The reference run: one process owns the whole sweep.
    let single = solve_many(&corpus, &rt);

    // Each shard solves its contiguous range and serialises its part.
    // A later shard warm-starts from the previous one's prep snapshot —
    // shipping memoised exact subset solves, never results.
    let mut shipped: Vec<Vec<u8>> = Vec::new();
    let mut prep: Vec<u8> = Vec::new();
    for shard in 0..shards {
        let cache = PrepCache::new();
        let warmed = if prep.is_empty() {
            0
        } else {
            cache
                .load_into(prep.as_slice())
                .expect("snapshot from this process")
        };
        let range = corpus.shard_range(shard, shards);
        let part = solve_range(&corpus, range, &rt, &cache, |_r| {});
        println!(
            "shard {shard}/{shards}: {} jobs in {:?} ({} warm-start entries in, {} misses)",
            part.jobs, part.wall, warmed, part.cache.misses,
        );
        let mut bytes = Vec::new();
        part.save_to(&mut bytes).expect("write to a Vec");
        prep.clear();
        cache.save_to(&mut prep).expect("write to a Vec");
        println!(
            "  part snapshot: {} bytes, prep snapshot: {} bytes",
            bytes.len(),
            prep.len()
        );
        shipped.push(bytes);
    }

    // The merging process: load every part, merge, finish.
    let mut reports = shipped
        .iter()
        .map(|bytes| PartReport::load_from(bytes.as_slice()).expect("round trip"));
    let mut merged = reports.next().expect("at least one shard");
    for report in reports {
        merged.merge(report);
    }
    let stream = merged.finish();

    println!("\nmerged groups (vs single-process):");
    for (m, s) in stream.groups.iter().zip(&single.groups) {
        assert_eq!(
            (m.jobs, m.min_value, m.max_value, m.mean_value, m.mean_ratio),
            (s.jobs, s.min_value, s.max_value, s.mean_value, s.mean_ratio),
            "sharding may never move an aggregate"
        );
        println!(
            "  {:<12} {:<12} eps {:<4} jobs {} worst {} mean {:.3} ok {}",
            m.instance,
            m.backend,
            m.eps,
            m.jobs,
            match m.sense {
                Sense::Packing => m.min_value,
                Sense::Covering => m.max_value,
            },
            m.mean_value,
            m.meets_guarantee(),
        );
    }
    println!("\nshard merge reproduced the single-process aggregation exactly.");
}

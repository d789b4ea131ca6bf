//! Wall-clock benches for the graph and simulator substrates.

use criterion::{criterion_group, criterion_main, Criterion};
use dapc_graph::{gen, girth, lps, power, traversal, DiameterScratch, Hypergraph, Vertex};
use dapc_local::gather::gather_views;

fn bench_generators(c: &mut Criterion) {
    c.bench_function("gen/gnp_10k_sparse", |b| {
        b.iter(|| gen::gnp(10_000, 0.0008, &mut gen::seeded_rng(1)))
    });
    c.bench_function("gen/random_regular_2k_d4", |b| {
        b.iter(|| gen::random_regular(2000, 4, &mut gen::seeded_rng(2)))
    });
    let mut group = c.benchmark_group("gen_lps");
    group.sample_size(10);
    group.bench_function("lps_5_13", |b| b.iter(|| lps::lps_graph(5, 13)));
    group.finish();
}

fn bench_traversal(c: &mut Criterion) {
    let g = gen::gnp(5000, 0.0015, &mut gen::seeded_rng(3));
    c.bench_function("traversal/bfs_gnp5000", |b| {
        b.iter(|| traversal::bfs_distances(&g, 0))
    });
    c.bench_function("traversal/ball_r5", |b| {
        b.iter(|| traversal::ball(&g, &[0], 5, None))
    });
    // Exact weak diameter on the LDD-validation shapes: a cluster
    // spanning a whole 4-regular expander and the giant component of a
    // sparse G(n,p) (eccentricities close to the radius, so every batch
    // is swept and the dense levels run bottom-up), the one cluster
    // `three_phase_ldd` returns on E1's grid (the whole 32×32 grid, weak
    // diameter 62), and a typical grid cluster (the radius-8 diamond in
    // the middle of that grid).
    let mut scratch = DiameterScratch::new();
    let rr = gen::random_regular(1024, 4, &mut gen::seeded_rng(4));
    let whole: Vec<Vertex> = rr.vertices().collect();
    c.bench_function("traversal/weak_diameter_rr1024_whole", |b| {
        b.iter(|| traversal::weak_diameter_with_scratch(&rr, &whole, &mut scratch))
    });
    let gnp = gen::gnp(1024, 6.0 / 1024.0, &mut gen::seeded_rng(5));
    let (comp, k) = gnp.connected_components();
    let mut sizes = vec![0usize; k];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    let largest = (0..k).max_by_key(|&c| sizes[c]).unwrap_or(0);
    let giant: Vec<Vertex> = gnp
        .vertices()
        .filter(|&v| comp[v as usize] as usize == largest)
        .collect();
    c.bench_function("traversal/weak_diameter_gnp1024_giant", |b| {
        b.iter(|| traversal::weak_diameter_with_scratch(&gnp, &giant, &mut scratch))
    });
    let grid = gen::grid(32, 32);
    let all_grid: Vec<Vertex> = grid.vertices().collect();
    c.bench_function("traversal/weak_diameter_grid32_whole", |b| {
        b.iter(|| traversal::weak_diameter_with_scratch(&grid, &all_grid, &mut scratch))
    });
    let diamond: Vec<Vertex> = traversal::ball(&grid, &[16 * 32 + 16], 8, None)
        .iter()
        .collect();
    c.bench_function("traversal/weak_diameter_grid32_r8", |b| {
        b.iter(|| traversal::weak_diameter_with_scratch(&grid, &diamond, &mut scratch))
    });
}

fn bench_girth_and_power(c: &mut Criterion) {
    let x = lps::lps_graph(17, 5);
    c.bench_function("girth/lps_17_5", |b| b.iter(|| girth::girth(&x.graph)));
    let g = gen::grid(25, 25);
    c.bench_function("power/grid25_k3", |b| b.iter(|| power::power_graph(&g, 3)));
}

fn bench_hypergraph(c: &mut Criterion) {
    let ilp = dapc_ilp::problems::k_dominating_set(&gen::cycle(1000), 2, vec![1; 1000]);
    let h: &Hypergraph = ilp.hypergraph();
    c.bench_function("hypergraph/ball_kds_r10", |b| {
        b.iter(|| h.ball(&[0], 10, None, None))
    });
    c.bench_function("hypergraph/primal_graph", |b| b.iter(|| h.primal_graph()));
}

fn bench_simulator(c: &mut Criterion) {
    let g = gen::grid(20, 20);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("gather_r4_grid20", |b| b.iter(|| gather_views(&g, 4)));
    group.finish();
}

criterion_group!(
    benches,
    bench_generators,
    bench_traversal,
    bench_girth_and_power,
    bench_hypergraph,
    bench_simulator
);
criterion_main!(benches);

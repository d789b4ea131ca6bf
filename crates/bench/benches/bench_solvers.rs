//! Wall-clock benches for the exact local solvers (the "free local
//! computation" the LOCAL model grants — here is its simulation price).

use criterion::{criterion_group, criterion_main, Criterion};
use dapc_graph::{gen, Vertex};
use dapc_ilp::problems;
use dapc_ilp::restrict::{covering_restriction, packing_restriction};
use dapc_ilp::solvers::{self, blossom, mis, SolverBudget};

/// Every variable of an `n`-variable instance, ascending.
fn all(n: usize) -> Vec<Vertex> {
    (0..n as Vertex).collect()
}

fn bench_mwis(c: &mut Criterion) {
    let g = gen::gnp(60, 0.15, &mut gen::seeded_rng(1));
    let w: Vec<u64> = (0..60).map(|i| 1 + (i as u64 % 7)).collect();
    c.bench_function("mwis_bnb/gnp60x0.15", |b| {
        b.iter(|| mis::max_weight_independent_set(&g, &w, &solvers::SolverBudget::unlimited()))
    });
}

fn bench_blossom(c: &mut Criterion) {
    let g = gen::random_regular(600, 3, &mut gen::seeded_rng(2));
    c.bench_function("blossom/reg3_600", |b| b.iter(|| blossom::max_matching(&g)));
}

fn bench_covering_bnb(c: &mut Criterion) {
    let g = gen::grid(4, 6);
    let ilp = problems::min_dominating_set_unweighted(&g);
    let sub = covering_restriction(&ilp, &all(24));
    c.bench_function("covering_bnb/ds_grid4x6", |b| {
        b.iter(|| solvers::bnb::solve_covering(&sub, &solvers::SolverBudget::unlimited()))
    });
}

fn bench_dispatch(c: &mut Criterion) {
    let g = gen::cycle(80);
    let ilp = problems::max_independent_set_unweighted(&g);
    let sub = packing_restriction(&ilp, &all(80));
    let budget = SolverBudget::default();
    c.bench_function("dispatch/mis_cycle80", |b| {
        b.iter(|| solvers::solve(&sub, &budget))
    });
    let m = problems::max_matching(&gen::complete(24));
    let subm = packing_restriction(&m.ilp, &all(m.ilp.n()));
    c.bench_function("dispatch/matching_k24", |b| {
        b.iter(|| solvers::solve(&subm, &budget))
    });
}

fn bench_greedy(c: &mut Criterion) {
    let g = gen::gnp(800, 0.01, &mut gen::seeded_rng(3));
    let pack = problems::max_independent_set_unweighted(&g);
    let psub = packing_restriction(&pack, &all(800));
    c.bench_function("greedy_packing/gnp800", |b| {
        b.iter(|| solvers::greedy::greedy_packing(&psub))
    });
    let cover = problems::min_dominating_set_unweighted(&g);
    let csub = covering_restriction(&cover, &all(800));
    c.bench_function("greedy_covering/gnp800", |b| {
        b.iter(|| solvers::greedy::greedy_covering(&csub))
    });
}

criterion_group!(
    benches,
    bench_mwis,
    bench_blossom,
    bench_covering_bnb,
    bench_dispatch,
    bench_greedy
);
criterion_main!(benches);

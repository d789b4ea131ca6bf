//! Shard-mode execution of the batch experiments: the plumbing behind
//! `tables --shard i/n --emit-shard PATH` and `tables --merge-shards
//! PATHS..`.
//!
//! Every batch experiment (E3–E6, E10) issues its `solve` calls through
//! one [`Runner`], which executes them in one of three modes:
//!
//! * **Single** — the classic in-process path: run the whole corpus,
//!   return the [`StreamReport`] the experiment renders its rows from.
//! * **Emit** — run only this process's contiguous shard of each corpus
//!   (the range [`Corpus::shard_range`] names, through
//!   [`dapc_runtime::solve_range`]) and record the mergeable
//!   [`PartReport`]; `solve` returns `None`, so the experiment skips
//!   rendering (a shard's summary is partial by construction). The
//!   recorded parts are written to a shard file.
//! * **Merge** — run nothing: pop the next [`PartReport`] from every
//!   shard file (the call sequence is deterministic, so the k-th `solve`
//!   call of every cooperating process solved the same corpus), merge
//!   them, and return the finished [`StreamReport`] — bit-identical to
//!   the Single-mode aggregation, so the rendered tables diff clean.
//!
//! Experiments therefore follow one structural rule: **issue every
//! `solve` call first, render after** — in Emit mode all calls must
//! happen (to keep the shard files aligned across processes) even though
//! no rendering follows.

use crate::Profile;
use dapc_runtime::{
    snap, solve_many_streaming_with_cache, solve_range, Corpus, PartReport, PrepCache,
    RuntimeConfig, StreamReport,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Magic + version prefix of the shard *file* format (a header naming
/// the run it belongs to, then the recorded [`PartReport`]s in call
/// order): seven identifying bytes and a format version byte. Version 2
/// appended a whole-file integrity seal ([`snap::seal`]); version 3
/// holds part blobs instead of the retired whole-shard reports, so an
/// older file fails as a wrong version before any nested loader runs.
pub const SHARD_FILE_MAGIC: &[u8; 8] = dapc_core::snapmagic::SHARD_FILE.bytes;

/// How a [`Runner`] executes the batch experiments' `solve` calls.
enum Mode {
    /// Run everything in this process.
    Single,
    /// Run shard `shard` of `shards` of every corpus, recording the
    /// reports.
    Emit {
        shard: usize,
        shards: usize,
        reports: Vec<PartReport>,
    },
    /// Replay recorded reports, one queue per cooperating shard file.
    Merge { queues: Vec<VecDeque<PartReport>> },
}

/// Executes the batch experiments' corpus sweeps in Single, Emit or
/// Merge mode (see the module docs).
pub struct Runner {
    rt: RuntimeConfig,
    mode: RefCell<Mode>,
}

impl Runner {
    /// The classic single-process runner.
    pub fn single(rt: RuntimeConfig) -> Self {
        Runner {
            rt,
            mode: RefCell::new(Mode::Single),
        }
    }

    /// A runner that solves only shard `shard` of `shards` of every
    /// corpus and records the mergeable reports (collect them with
    /// [`Runner::into_emitted`]).
    ///
    /// # Panics
    ///
    /// Panics when `shard >= shards` or `shards == 0`.
    pub fn emit(rt: RuntimeConfig, shard: usize, shards: usize) -> Self {
        assert!(
            shards > 0 && shard < shards,
            "shard {shard}/{shards} out of range"
        );
        Runner {
            rt,
            mode: RefCell::new(Mode::Emit {
                shard,
                shards,
                reports: Vec::new(),
            }),
        }
    }

    /// A runner that merges pre-recorded part reports: `shards[i]` is
    /// the report sequence of cooperating process `i`, in call order.
    pub fn merge(rt: RuntimeConfig, shards: Vec<Vec<PartReport>>) -> Self {
        Runner {
            rt,
            mode: RefCell::new(Mode::Merge {
                queues: shards.into_iter().map(VecDeque::from).collect(),
            }),
        }
    }

    /// Whether `solve` returns reports to render (`false` in Emit mode —
    /// experiments must still issue every `solve` call, then skip
    /// rendering).
    pub fn rendering(&self) -> bool {
        !matches!(&*self.mode.borrow(), Mode::Emit { .. })
    }

    /// Runs (or replays) one corpus sweep. Returns `None` in Emit mode.
    ///
    /// # Panics
    ///
    /// In Merge mode, panics when a shard file runs out of reports or
    /// its next report does not belong to `corpus` — the emitting and
    /// merging invocations selected different experiments.
    pub fn solve(&self, corpus: &Corpus) -> Option<StreamReport> {
        self.solve_inner(corpus, &PrepCache::new(), true)
    }

    /// [`Runner::solve`] with the per-instance reference optima disabled
    /// — for corpora whose optimum is known analytically (the ratio
    /// columns are computed by the experiment itself).
    pub fn solve_without_optima(&self, corpus: &Corpus) -> Option<StreamReport> {
        self.solve_inner(corpus, &PrepCache::new(), false)
    }

    /// [`Runner::solve`] against a caller-owned cache, so experiments
    /// sweeping one family across several corpora keep their prep warm
    /// (in Emit mode the cache warms this shard's calls the same way).
    pub fn solve_with_cache(&self, corpus: &Corpus, cache: &PrepCache) -> Option<StreamReport> {
        self.solve_inner(corpus, cache, true)
    }

    fn solve_inner(
        &self,
        corpus: &Corpus,
        cache: &PrepCache,
        reference_optima: bool,
    ) -> Option<StreamReport> {
        let rt = self
            .rt
            .clone()
            .reference_optima(self.rt.reference_optima && reference_optima);
        match &mut *self.mode.borrow_mut() {
            Mode::Single => Some(solve_many_streaming_with_cache(corpus, &rt, cache, |_r| {})),
            Mode::Emit {
                shard,
                shards,
                reports,
            } => {
                let range = corpus.shard_range(*shard, *shards);
                reports.push(solve_range(corpus, range, &rt, cache, |_r| {}));
                None
            }
            Mode::Merge { queues } => {
                let mut merged: Option<PartReport> = None;
                for (i, queue) in queues.iter_mut().enumerate() {
                    let report = queue.pop_front().unwrap_or_else(|| {
                        panic!(
                            "shard file {i} ran out of reports — emitted with \
                             different experiments selected?"
                        )
                    });
                    assert_eq!(
                        report.corpus_jobs,
                        corpus.len(),
                        "shard file {i}'s next report covers a different corpus — \
                         emitted with different experiments or profile?"
                    );
                    match &mut merged {
                        Some(m) => m.merge(report),
                        None => merged = Some(report),
                    }
                }
                Some(
                    merged
                        .expect("merge mode needs at least one shard file")
                        .finish(),
                )
            }
        }
    }

    /// Closes an Emit-mode runner, returning the recorded reports in
    /// call order.
    ///
    /// # Panics
    ///
    /// Panics on a non-Emit runner.
    pub fn into_emitted(self) -> Vec<PartReport> {
        match self.mode.into_inner() {
            Mode::Emit { reports, .. } => reports,
            _ => panic!("into_emitted on a non-emit runner"),
        }
    }

    /// Merge-mode sanity check after the last experiment: every shard
    /// file must be fully consumed, or the merging invocation selected
    /// fewer experiments than the emitting one.
    ///
    /// # Panics
    ///
    /// Panics when reports are left over (no-op in other modes).
    pub fn assert_drained(&self) {
        if let Mode::Merge { queues } = &*self.mode.borrow() {
            for (i, queue) in queues.iter().enumerate() {
                assert!(
                    queue.is_empty(),
                    "shard file {i} has {} unconsumed reports — emitted with more \
                     experiments selected than merged?",
                    queue.len()
                );
            }
        }
    }
}

/// Everything a shard file records: which run it belongs to (profile,
/// experiment ids, shard coordinates) and the reports in call order.
#[derive(Debug)]
pub struct ShardFile {
    /// Trial-count profile of the emitting invocation.
    pub profile: Profile,
    /// Comma-joined experiment ids of the emitting invocation.
    pub ids: String,
    /// Shard index this file was produced as.
    pub shard: usize,
    /// Total shard count of the split.
    pub shards: usize,
    /// Recorded parts, in experiment call order.
    pub reports: Vec<PartReport>,
}

/// Writes one process's recorded part reports with the header that lets
/// the merging invocation verify every file belongs to the same run.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_shard_file<W: Write>(
    mut w: W,
    profile: Profile,
    ids: &str,
    shard: usize,
    shards: usize,
    reports: &[PartReport],
) -> io::Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SHARD_FILE_MAGIC);
    buf.push(match profile {
        Profile::Quick => 0,
        Profile::Full => 1,
    });
    snap::write_str(&mut buf, ids)?;
    snap::write_u64(&mut buf, shard as u64)?;
    snap::write_u64(&mut buf, shards as u64)?;
    snap::write_u64(&mut buf, reports.len() as u64)?;
    for report in reports {
        let mut blob = Vec::new();
        report.save_to(&mut blob)?;
        snap::write_bytes(&mut buf, &blob)?;
    }
    snap::seal(&mut buf);
    // Chaos: the write dies mid-file. The torn file fails its seal at
    // merge time, so the run aborts loudly instead of merging a prefix.
    if let Some(mut roll) = dapc_chaos::roll("shard.write") {
        w.write_all(&buf[..roll.pick(buf.len().max(2) - 1) + 1])?;
        return Err(io::Error::other("chaos: shard file torn mid-write"));
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Reads a file written by [`write_shard_file`]. Like every snapshot
/// loader in the workspace it fully parses before returning and fails
/// with an `Err` — never a panic — on truncated or corrupt input.
///
/// # Errors
///
/// `InvalidData` on a bad magic/version, a corrupt field or trailing
/// bytes after the last report, `UnexpectedEof` on truncation, plus any
/// reader error.
pub fn read_shard_file<R: Read>(r: R) -> io::Result<ShardFile> {
    let mut r = snap::SealingReader::new(dapc_chaos::corrupt_reader("shardfile.load", r));
    snap::check_magic(&mut r, SHARD_FILE_MAGIC, "shard-file")?;
    let profile = match snap::read_u8(&mut r)? {
        0 => Profile::Quick,
        1 => Profile::Full,
        b => return Err(snap::invalid(format!("bad profile byte {b}"))),
    };
    let ids = snap::read_str(&mut r, "experiment ids")?;
    let shard = snap::read_u64(&mut r)? as usize;
    let shards = snap::read_u64(&mut r)? as usize;
    if shards == 0 || shard >= shards {
        return Err(snap::invalid(format!(
            "shard header {shard}/{shards} out of range"
        )));
    }
    let count = snap::read_u64(&mut r)?;
    let mut reports = Vec::new();
    for _ in 0..count {
        let blob = snap::read_bytes(&mut r, "part report")?;
        reports.push(PartReport::load_from(blob.as_slice())?);
    }
    r.verify_seal("shard-file")?;
    // Self-delimiting like every snapshot format here: bytes after the
    // last report are corruption (e.g. concatenated files), not padding.
    let mut trailing = [0u8; 1];
    if r.read(&mut trailing)? != 0 {
        return Err(snap::invalid("trailing bytes after the last part report"));
    }
    Ok(ShardFile {
        profile,
        ids,
        shard,
        shards,
        reports,
    })
}

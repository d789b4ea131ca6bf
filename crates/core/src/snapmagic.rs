//! Central registry of every persisted snapshot format's magic bytes.
//!
//! Every binary format the workspace writes to disk or the wire opens
//! with the same shape of prefix: seven identifying bytes
//! (`DAPC` + a three-letter format tag) and a format version byte.
//! Version `\x01` formats end with their last field; version `\x02`+
//! formats append a 16-byte FNV-1a-128 seal over every preceding byte
//! ([`seal`], checked on load through a [`SealingReader`]), so bit flips
//! and truncation fail loudly.
//!
//! This module is the *only* place a `b"DAPC…"` literal may appear in
//! library code. Two checks hold it to that. The
//! `registry_is_consistent` unit test below checks the table itself:
//! `DAPC` prefix, version-byte range, seal-flag consistency and the
//! uniqueness of every magic and tag. The workspace test
//! `tests/source_contracts.rs` fails on any `b"DAPC…"` literal outside
//! this file and checks that every entry of [`ALL`] is declared here.
//! Loaders and writers import these constants; a new format starts by
//! adding its entry here.

use dapc_ilp::hash::{fnv1a_128, FNV128_OFFSET};
use std::io::{self, Read};

/// One registered snapshot format: its 8-byte magic (7 identifying
/// bytes + 1 version byte), whether the format carries a trailing
/// FNV-1a-128 whole-payload seal, and a human-readable name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Magic {
    /// The full 8-byte prefix, version byte included.
    pub bytes: &'static [u8; 8],
    /// Whether the payload ends with a 16-byte FNV-1a-128 seal. By
    /// convention true exactly for version `\x02`+ formats.
    pub sealed: bool,
    /// Short human-readable format name for error messages and docs.
    pub name: &'static str,
}

impl Magic {
    /// The format version byte (the magic's last byte).
    pub const fn version(&self) -> u8 {
        self.bytes[7]
    }

    /// The three-letter format tag between the `DAPC` prefix and the
    /// version byte.
    pub fn tag(&self) -> &'static [u8] {
        &self.bytes[4..7]
    }
}

/// `dapc_core::prep::SharedSubsetCache` warm-start snapshot. Version 2
/// stores member-local assignments (version 1 stored `n`-length ones)
/// and is sealed.
pub const SUBSET_CACHE: Magic = Magic {
    bytes: b"DAPCSSC\x02",
    sealed: true,
    name: "subset-cache warm-start snapshot",
};

/// `dapc_runtime::PrepCache` whole-cache (per-family) snapshot.
pub const PREP_CACHE: Magic = Magic {
    bytes: b"DAPCPPC\x01",
    sealed: false,
    name: "prep-cache family snapshot",
};

/// `dapc_runtime::BatchAggregator` canonical binary snapshot.
pub const AGGREGATOR: Magic = Magic {
    bytes: b"DAPCAGG\x01",
    sealed: false,
    name: "batch-aggregator snapshot",
};

/// `dapc_runtime::PartReport` checkpoint (contiguous job range).
pub const PART: Magic = Magic {
    bytes: b"DAPCPRT\x02",
    sealed: true,
    name: "part-report checkpoint",
};

/// `dapc_serve::CorpusSpec` declarative sweep description.
pub const SPEC: Magic = Magic {
    bytes: b"DAPCSPC\x01",
    sealed: false,
    name: "corpus-spec bytes",
};

/// `dapc_serve` sweep-directory `manifest.bin`.
pub const MANIFEST: Magic = Magic {
    bytes: b"DAPCMAN\x02",
    sealed: true,
    name: "sweep manifest",
};

/// `dapc_bench::shard` shard *file* (header + recorded part reports).
/// Version 3 switched the payload from whole-shard reports to
/// `dapc_runtime::PartReport` blobs.
pub const SHARD_FILE: Magic = Magic {
    bytes: b"DAPCSHF\x03",
    sealed: true,
    name: "bench shard file",
};

/// Every registered format, for the consistency test and for tooling
/// that wants to recognise any workspace snapshot.
pub const ALL: [&Magic; 7] = [
    &SUBSET_CACHE,
    &PREP_CACHE,
    &AGGREGATOR,
    &PART,
    &SPEC,
    &MANIFEST,
    &SHARD_FILE,
];

/// Appends the 16-byte FNV-1a-128 seal over everything currently in
/// `buf`. Sealed formats serialise all fields into a buffer first, call
/// this last, and write the buffer in one shot; loaders parse the
/// fields through a [`SealingReader`] and call
/// [`SealingReader::verify_seal`] once every field is in. Any bit flip
/// or truncation anywhere under the seal is then guaranteed to surface
/// as an `Err` — a snapshot can fail to load, but never half-load or
/// load wrong.
pub fn seal(buf: &mut Vec<u8>) {
    let digest = fnv1a_128(FNV128_OFFSET, buf);
    buf.extend_from_slice(&digest.to_le_bytes());
}

/// A reader that folds every byte it passes through into a running
/// FNV-1a-128 digest, so a loader can parse a sealed snapshot's fields
/// normally and then check the trailing seal against exactly the bytes
/// it consumed. Field-level validation errors fire first (they read
/// fewer bytes); the seal catches everything those checks cannot.
pub struct SealingReader<R> {
    inner: R,
    digest: u128,
}

impl<R: Read> SealingReader<R> {
    /// Starts a fresh digest over `inner`.
    pub fn new(inner: R) -> Self {
        SealingReader {
            inner,
            digest: FNV128_OFFSET,
        }
    }

    /// Reads the 16-byte seal from the underlying stream (NOT folded
    /// into the digest) and compares it with the digest of everything
    /// read so far. Call after the last sealed field and before any
    /// trailing-bytes check.
    pub fn verify_seal(&mut self, what: &str) -> io::Result<()> {
        let expect = self.digest;
        let mut buf = [0u8; 16];
        self.inner.read_exact(&mut buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("truncated {what} snapshot seal"),
                )
            } else {
                e
            }
        })?;
        if u128::from_le_bytes(buf) != expect {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{what} snapshot seal mismatch (corrupt or torn file)"),
            ));
        }
        Ok(())
    }
}

impl<R: Read> Read for SealingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest = fnv1a_128(self.digest, &buf[..n]);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry invariants: `DAPC` prefix, known version byte,
    /// version/seal consistency, and uniqueness of both the full magic
    /// and the three-letter tag.
    #[test]
    fn registry_is_consistent() {
        let mut seen_magic = std::collections::BTreeSet::new();
        let mut seen_tag = std::collections::BTreeSet::new();
        for m in ALL {
            assert!(
                m.bytes.starts_with(b"DAPC"),
                "{} magic lacks the DAPC prefix",
                m.name
            );
            assert!(
                (1..=3).contains(&m.version()),
                "{} has unknown version byte {:#04x}",
                m.name,
                m.version()
            );
            assert_eq!(
                m.sealed,
                m.version() >= 2,
                "{}: seal presence must match the version convention",
                m.name
            );
            assert!(
                seen_magic.insert(m.bytes),
                "duplicate magic {:?} ({})",
                m.bytes,
                m.name
            );
            assert!(
                seen_tag.insert(m.tag()),
                "duplicate format tag {:?} ({})",
                String::from_utf8_lossy(m.tag()),
                m.name
            );
        }
        assert_eq!(ALL.len(), 7, "keep the table in sync with the formats");
    }
}

//! The source contracts clippy cannot express, checked line by line over
//! the non-test code of `crates/*/src` and the facade's `src/`. (The
//! others are lints: `[workspace.lints]` in `Cargo.toml`, `clippy.toml`,
//! and the panic `#![deny]` in the runtime and serve crate roots.)
//!
//! - **ordering**: every atomic `Ordering::` use carries an
//!   `// ordering:` comment on the same line or in the comment block
//!   directly above, except in three modules that document one ordering
//!   contract for the whole file.
//! - **magic-registry**: every `b"DAPC…"` snapshot magic is declared in
//!   `crates/core/src/snapmagic.rs`, whose `registry_is_consistent` unit
//!   test checks versions, seals and uniqueness.
//! - **workspace lints**: every member manifest carries
//!   `[lints] workspace = true`, so the forbidden `unsafe_code` and the
//!   lint levels reach it.

use std::fs;
use std::path::{Path, PathBuf};

/// Modules whose atomics follow one ordering contract documented at the
/// top of the file rather than per-site comments.
const ORDERING_EXEMPT: &[&str] = &[
    "crates/exec/src/deque.rs",
    "crates/exec/src/park.rs",
    "crates/obs/src/lib.rs",
];

/// The one file allowed to declare `b"DAPC…"` literals.
const MAGIC_REGISTRY: &str = "crates/core/src/snapmagic.rs";

/// The ordering violation message.
const UNJUSTIFIED: &str = "`Ordering::` without an `// ordering:` comment";

/// One source line as the scanner sees it.
#[derive(Default)]
struct Line {
    /// The code, with comments removed and literal contents blanked.
    code: String,
    /// The text of every comment on the line.
    comment: String,
    /// Byte-string literals that open on this line, `\x` escapes decoded.
    byte_strs: Vec<Vec<u8>>,
    /// Whether the line belongs to a `#[cfg(test)]` or `#[test]` item.
    test: bool,
}

/// Splits `src` into lines of code, comment text and byte strings, then
/// marks the lines of test items.
fn scan(src: &str) -> Vec<Line> {
    let c: Vec<char> = src.chars().collect();
    let at = |k: usize| c.get(k).copied().unwrap_or('\0');
    let mut lines = vec![Line::default()];
    let mut i = 0;
    while i < c.len() {
        let n = lines.len() - 1;
        let ident_before = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_');
        if let Some((byte, raw, open)) = literal_start(&c, i).filter(|_| !ident_before) {
            lines[n].code.push_str("\"\"");
            let (bytes, end) = literal(&c, open + 1, raw, &mut lines);
            if byte {
                lines[n].byte_strs.push(bytes);
            }
            i = end;
            continue;
        }
        i = match (c[i], at(i + 1)) {
            ('/', next @ ('/' | '*')) => {
                let end = match next {
                    '*' => (i + 3..c.len()).find(|&k| c[k - 1] == '*' && c[k] == '/'),
                    _ => (i..c.len()).find(|&k| c[k] == '\n').map(|k| k - 1),
                };
                let end = end.map_or(c.len(), |k| k + 1);
                for &ch in &c[i..end] {
                    if ch == '\n' {
                        lines.push(Line::default());
                    } else if let Some(line) = lines.last_mut() {
                        line.comment.push(ch);
                    }
                }
                end
            }
            // A char literal; a lone `'` opens a lifetime and stays code.
            ('\'', next) if next == '\\' || at(i + 2) == '\'' => {
                lines[n].code.push_str("' '");
                let close = match next {
                    '\\' => (i + 3..c.len()).find(|&k| c[k] == '\''),
                    _ => Some(i + 2),
                };
                close.map_or(c.len(), |k| k + 1)
            }
            ('\n', _) => {
                lines.push(Line::default());
                i + 1
            }
            (ch, _) => {
                lines[n].code.push(ch);
                i + 1
            }
        };
    }
    mark_tests(&mut lines);
    lines
}

/// A `"`, `b"`, `r"`, `br"` or `r#"` literal opening at `i`: whether it
/// is a byte string, its raw `#` count (`None` unless raw) and the index
/// of its opening quote.
fn literal_start(c: &[char], i: usize) -> Option<(bool, Option<usize>, usize)> {
    let byte = c[i] == 'b';
    let mut k = i + usize::from(byte);
    let raw = c.get(k) == Some(&'r');
    k += usize::from(raw);
    let hashes = c.iter().skip(k).take_while(|&&h| raw && h == '#').count();
    k += hashes;
    (c.get(k) == Some(&'"')).then_some((byte, raw.then_some(hashes), k))
}

/// Reads a literal body from `i`, just past its opening quote, starting
/// a new line at each newline it crosses. Returns the content with `\x`
/// escapes decoded and the index past the literal.
fn literal(
    c: &[char],
    mut i: usize,
    raw: Option<usize>,
    lines: &mut Vec<Line>,
) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    while i < c.len() {
        match (c[i], raw) {
            ('"', Some(h)) if (1..=h).all(|d| c.get(i + d) == Some(&'#')) => {
                return (out, i + 1 + h)
            }
            ('"', None) => return (out, i + 1),
            ('\\', None) if c.get(i + 1) == Some(&'x') => {
                let hex: String = c.iter().skip(i + 2).take(2).collect();
                out.push(u8::from_str_radix(&hex, 16).unwrap_or(0));
                i += 4;
                continue;
            }
            // Other escapes keep their letter: an escaped quote never
            // closes the literal, and no letter spells a magic byte.
            ('\\', None) => i += 1,
            _ => {}
        }
        if let Some(&ch) = c.get(i) {
            if ch == '\n' {
                lines.push(Line::default());
            }
            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
        }
        i += 1;
    }
    (out, i)
}

/// Marks every line of an item annotated `#[cfg(test)]` or `#[test]`,
/// from the attribute to the item's closing brace (or its `;`).
fn mark_tests(lines: &mut [Line]) {
    let mut depth = 0usize;
    // `Some(nesting)` between a test attribute and its item's `{`; the
    // `(`/`[` nesting keeps a `;` inside a signature from ending it.
    let mut pending: Option<usize> = None;
    let mut open_at: Option<usize> = None;
    for line in lines {
        let code = line.code.replace(' ', "");
        if open_at.is_none() && (code.contains("#[cfg(test)]") || code.contains("#[test]")) {
            pending = Some(0);
        }
        line.test = pending.is_some() || open_at.is_some();
        for ch in line.code.chars() {
            match ch {
                '{' => {
                    if pending.take().is_some() && open_at.is_none() {
                        open_at = Some(depth);
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if open_at == Some(depth) {
                        open_at = None;
                    }
                }
                '(' | '[' => pending = pending.map(|p| p + 1),
                ')' | ']' => pending = pending.map(|p| p.saturating_sub(1)),
                ';' if pending == Some(0) => pending = None,
                _ => {}
            }
        }
    }
}

/// Whether `code` names `Ordering` as a whole identifier followed by `::`.
fn uses_ordering(code: &str) -> bool {
    code.match_indices("Ordering").any(|(at, word)| {
        let before = code[..at].chars().next_back();
        !before.is_some_and(|b| b.is_alphanumeric() || b == '_')
            && code[at + word.len()..].trim_start().starts_with("::")
    })
}

/// Violations of the ordering and magic-registry contracts in one source
/// file, as `path:line: message`.
fn check_source(path: &str, src: &str) -> Vec<String> {
    let lines = scan(src);
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let at = format!("{path}:{}", idx + 1);
        if !line.test && !ORDERING_EXEMPT.contains(&path) && uses_ordering(&line.code) {
            let justified = line.comment.contains("ordering:")
                || lines[..idx]
                    .iter()
                    .rev()
                    .take_while(|l| l.code.trim().is_empty() && !l.comment.is_empty())
                    .any(|l| l.comment.contains("ordering:"));
            if !justified {
                out.push(format!("{at}: {UNJUSTIFIED}"));
            }
        }
        if path != MAGIC_REGISTRY {
            for lit in line.byte_strs.iter().filter(|b| b.starts_with(b"DAPC")) {
                let lit = String::from_utf8_lossy(lit);
                out.push(format!("{at}: magic {lit:?} outside {MAGIC_REGISTRY}"));
            }
        }
    }
    out
}

/// Whether a manifest has a `[lints]` table holding `workspace = true`.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    manifest.lines().map(str::trim).any(|line| {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        }
        in_lints && line.replace(' ', "") == "workspace=true"
    })
}

/// The member directories named in the root manifest, the root package
/// (`""`) first.
fn members(root_manifest: &str) -> Vec<String> {
    let list = root_manifest.split("members = [").nth(1).unwrap_or("");
    let list = list.split(']').next().unwrap_or("");
    let quoted = list.split('"').skip(1).step_by(2).map(str::to_string);
    std::iter::once(String::new()).chain(quoted).collect()
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let p = entry.path();
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn workspace_sources_and_manifests_keep_the_contracts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).expect("crates/");
    let dirs = crates.flatten().map(|k| k.path().join("src"));
    let mut files = Vec::new();
    dirs.chain([root.join("src")])
        .for_each(|d| rs_files(&d, &mut files));
    files.sort();

    let mut violations = Vec::new();
    let mut registry_magics = Vec::new();
    let mut ordering_sites = 0;
    for file in &files {
        let rel = file.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(file).expect("readable source");
        violations.extend(check_source(&rel, &src));
        for line in scan(&src).into_iter().filter(|l| !l.test) {
            ordering_sites += usize::from(uses_ordering(&line.code));
            if rel == MAGIC_REGISTRY {
                registry_magics.extend(line.byte_strs);
            }
        }
    }
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = members(&root_manifest);
    for member in &members {
        let manifest = root.join(member).join("Cargo.toml");
        if !opts_into_workspace_lints(&fs::read_to_string(&manifest).expect("member manifest")) {
            violations.push(format!("{manifest:?} lacks `[lints] workspace = true`"));
        }
    }
    assert!(
        violations.is_empty(),
        "source contract violations:\n{}",
        violations.join("\n")
    );

    // The scan saw what it polices: exactly the registered magics as
    // literals in the registry, the atomics, every member, the lint table.
    let mut registered: Vec<_> = dapc_core::snapmagic::ALL.map(|m| m.bytes.to_vec()).to_vec();
    registered.sort();
    registry_magics.sort();
    assert_eq!(registry_magics, registered);
    assert!(ordering_sites > 0, "no `Ordering::` site was scanned");
    assert!(members.len() > 10, "members: {members:?}");
    assert!(root_manifest.contains("\nunsafe_code = \"forbid\"\n"));
}

const LIB: &str = "crates/runtime/src/x.rs";

#[test]
fn ordering_sites_need_a_justification() {
    let bare = "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed)\n}\n";
    assert_eq!(check_source(LIB, bare), [format!("{LIB}:2: {UNJUSTIFIED}")]);
    assert!(check_source("crates/exec/src/deque.rs", bare).is_empty());
    // (source, violations)
    let cases = [
        ("fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); } // ordering: Relaxed\n", 0),
        ("fn f(a: &A) {\n    // ordering: Relaxed, a counter;\n    // no data rides on it\n    a.load(Ordering::Relaxed);\n}\n", 0),
        ("#[cfg(test)]\nmod tests {\n    fn g(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n}\n", 0),
        ("#[test]\nfn t(a: &[u8; 4]) { a.load(Ordering::SeqCst); }\n", 0),
        ("/// `Ordering::Relaxed`\nfn f() -> &'static str { \"Ordering::X\" } /* Ordering::X */\n", 0),
        ("fn f(c: char) -> bool { c == '{' || c == '\\'' }\nfn g(a: &A) { a.load(Ordering::SeqCst); }\n", 1),
        // A blank line ends the comment block above the site.
        ("// ordering: Relaxed\n\nfn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n", 1),
        // Code after a closed test module is library code again.
        ("#[cfg(test)]\nmod tests {\n    fn g() {}\n}\nfn f(a: &A) { a.load(Ordering::Relaxed); }\n", 1),
        // The rule is lexical, so `cmp::Ordering` counts too.
        ("fn f() -> bool { 1.cmp(&2) == std::cmp::Ordering::Less }\n", 1),
    ];
    for (src, want) in cases {
        assert_eq!(check_source(LIB, src).len(), want, "{src}");
    }
}

#[test]
fn magic_literals_live_only_in_the_registry() {
    let decl = "pub const X: &[u8; 8] = b\"DAPCXYZ\\x01\";\n";
    assert!(check_source(MAGIC_REGISTRY, decl).is_empty());
    let found = check_source(LIB, decl);
    let want = format!("{LIB}:1: magic \"DAPCXYZ\\u{{1}}\" outside {MAGIC_REGISTRY}");
    assert_eq!(found, [want]);
    // Escapes are decoded, raw strings are seen, test code is not exempt,
    // and line numbers survive multi-line strings.
    let late = "const S: &str = \"a\\\"\nb\";\n#[test]\nfn t() { let _ = b\"DAPCPRT\\x02\"; }\n";
    assert!(check_source(LIB, late)[0].starts_with(&format!("{LIB}:4:")));
    // (source, violations)
    let cases = [
        ("const A: &[u8] = b\"\\x44\\x41PC\";\n", 1),
        ("const B: &[u8] = br#\"DAPCRAW\"#;\n", 1),
        (
            "const T: &str = \"DAPCXYZ\";\nconst U: &[u8] = b\"DAPX\";\n// b\"DAPCXYZ\\x01\"\n",
            0,
        ),
    ];
    for (src, want) in cases {
        assert_eq!(check_source(LIB, src).len(), want, "{src}");
    }
}

#[test]
fn manifests_must_opt_into_workspace_lints() {
    assert!(opts_into_workspace_lints(
        "[package]\n\n[lints]\nworkspace = true\n\n[dependencies]\n"
    ));
    assert!(!opts_into_workspace_lints(
        "[dependencies]\nworkspace = true\n"
    ));
    assert!(!opts_into_workspace_lints(
        "[lints.clippy]\nunwrap_used = \"deny\"\n"
    ));
    let root = "[workspace]\nmembers = [\n    \"crates/a\",\n    \"vendor/b\",\n]\n";
    assert_eq!(members(root), ["", "crates/a", "vendor/b"]);
}

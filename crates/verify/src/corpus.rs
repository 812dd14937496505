//! The checked-in regression corpus.
//!
//! Every shrunk discrepancy the fuzzer ever finds is appended here as a
//! small text file and replayed forever after as a normal `cargo test`
//! (see `tests/regression_corpus.rs`). The format is deliberately
//! trivial — `#` comment lines carrying provenance, then one expression
//! per surviving line:
//!
//! ```text
//! # found-by: mba_fuzz --seed 42 (iteration 17)
//! # kind: unsound
//! # witness: [eval] width 8: {x=255} gives 3 vs 4
//! ~(x - 1)
//! ```
//!
//! Replaying a reproducer means running it through all three simplify
//! paths and the full oracle stack; the file passes when no invariant
//! breaks. Seed entries pin historically interesting shapes (the
//! paper's Figure 1, the `~(x-1)` negation fold, signed-constant
//! folding) even though they never failed, so the corpus is never
//! empty and the replay harness itself stays exercised.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use mba_expr::Expr;

use crate::harness::Discrepancy;

/// One parsed corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reproducer {
    /// The expression to replay.
    pub expr: Expr,
    /// Provenance comments (without the leading `#`), in file order.
    pub notes: Vec<String>,
}

/// The corpus directory checked into this crate.
pub fn default_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Parses one corpus file: `#` comments, blank lines, then exactly one
/// expression line.
pub fn parse_reproducer(text: &str) -> Result<Reproducer, String> {
    let mut notes = Vec::new();
    let mut expr: Option<Expr> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(note) = line.strip_prefix('#') {
            notes.push(note.trim().to_string());
            continue;
        }
        if expr.is_some() {
            return Err("corpus file has more than one expression line".into());
        }
        expr = Some(
            line.parse::<Expr>()
                .map_err(|e| format!("bad expression `{line}`: {e}"))?,
        );
    }
    match expr {
        Some(expr) => Ok(Reproducer { expr, notes }),
        None => Err("corpus file has no expression line".into()),
    }
}

/// Loads every `.txt` reproducer under `dir`, sorted by file name so
/// replay order is stable.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Reproducer)>, String> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rep = parse_reproducer(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((path, rep))
        })
        .collect()
}

/// Renders a shrunk discrepancy in the corpus format.
pub fn render_reproducer(d: &Discrepancy, seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# found-by: mba_fuzz --seed {seed} (iteration {}, case {})\n",
        d.iteration, d.case_kind
    ));
    out.push_str(&format!("# kind: {}\n", d.kind));
    out.push_str(&format!("# original-input: {}\n", d.input));
    out.push_str(&format!("# original-output: {}\n", d.output));
    out.push_str(&format!("{}\n", d.shrunk));
    out
}

/// A short stable digest of an expression (FNV-1a over its printed
/// form), used for collision-free corpus file names.
fn expr_digest(e: &Expr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in e.to_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends a shrunk discrepancy to the corpus directory, returning the
/// path written. Idempotent per reproducer: the file name is derived
/// from the shrunk expression, so re-finding the same bug overwrites
/// rather than duplicates.
pub fn append_reproducer(dir: &Path, d: &Discrepancy, seed: u64) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("shrunk-{:016x}.txt", expr_digest(&d.shrunk)));
    let mut file = fs::File::create(&path)?;
    file.write_all(render_reproducer(d, seed).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_then_expression() {
        let rep = parse_reproducer("# kind: unsound\n\n# note two\nx + y*3\n").unwrap();
        assert_eq!(rep.expr.to_string(), "x+y*3");
        assert_eq!(rep.notes, ["kind: unsound", "note two"]);
    }

    #[test]
    fn rejects_empty_and_multi_expression_files() {
        assert!(parse_reproducer("# only comments\n").is_err());
        assert!(parse_reproducer("x\ny\n").is_err());
        assert!(parse_reproducer("not @ valid\n").is_err());
    }

    #[test]
    fn seed_corpus_is_present_and_parses() {
        let entries = load_dir(&default_corpus_dir()).unwrap();
        assert!(
            entries.len() >= 4,
            "seed corpus should have several entries, found {}",
            entries.len()
        );
    }

    #[test]
    fn digest_is_stable() {
        let e: Expr = "x + y".parse().unwrap();
        assert_eq!(expr_digest(&e), expr_digest(&"x + y".parse().unwrap()));
        assert_ne!(expr_digest(&e), expr_digest(&"x - y".parse().unwrap()));
    }
}

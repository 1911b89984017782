//! The determinism lint: a source-level scan for constructs that
//! break the workspace's byte-identical-reports invariant.
//!
//! The simulator, fleet executor, scoring, and workload layers all
//! promise bit-reproducible output for a given seed — across runs,
//! platforms, and worker counts. A single unordered-map iteration or
//! wall-clock read silently breaks every golden fixture and the fleet
//! merge proof, so those constructs are banned at the token level in
//! deterministic crates:
//!
//! | rule | banned tokens | why |
//! |------|---------------|-----|
//! | `hash-map` / `hash-set` | std unordered collections | iteration order is unspecified (`RandomState`) |
//! | `system-time` / `instant` | wall-clock reads | timing must come from the simulated clock |
//! | `thread-rng` | OS-entropy RNGs | randomness must flow from the run seed |
//! | `unordered-par-fold` | rayon-style parallel iteration | reduction order must be the committed merge order |
//! | `libm` | calls of transcendental `f64` methods (`exp`, `ln`, `log*`, trig, `powf`, …) | the platform libm's last bit is unspecified across hosts |
//!
//! Escapes: an inline `lint:allow(rule-name)` comment on the same or
//! the previous line, or an entry (with a justification) in the
//! committed `lint_determinism.allow` file at the workspace root.
//! Unused allowlist entries are themselves findings, so the allowlist
//! can only shrink.
//!
//! The scan is intentionally lexical (token with non-identifier
//! neighbors, comment lines skipped): it cannot be fooled by
//! renaming-by-`use`, and the few legitimate uses are cheap to
//! allowlist explicitly. The `libm` rule's tokens are function names
//! matched only where called (`.exp(` or `f64::exp(`), so a binding
//! named `exp` does not fire; `sqrt`, `powi` and basic arithmetic are
//! exact under IEEE 754 and stay allowed. The `bench` crate is out of
//! scope — its whole job is wall-clock measurement.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint rule: a name, the banned tokens, and the invariant the
/// ban protects.
pub struct Rule {
    /// The rule name used in `lint:allow(...)` and the allowlist.
    pub name: &'static str,
    /// Tokens that trigger the rule (matched with non-identifier
    /// neighbors on both sides).
    pub tokens: &'static [&'static str],
    /// Why the construct is banned.
    pub rationale: &'static str,
    /// Whether the tokens are function names that fire only where
    /// called, as `.name(` or `::name(`.
    pub calls: bool,
}

// Token literals are assembled with `concat!` so this file does not
// itself contain the contiguous banned spellings it scans for. The
// `libm` names need no assembling: they fire only as calls.
/// The committed ban list.
pub const RULES: &[Rule] = &[
    Rule {
        name: "hash-map",
        tokens: &[concat!("Hash", "Map")],
        rationale: "iteration order is unspecified; use a dense Vec, BTreeMap, or sorted keys",
        calls: false,
    },
    Rule {
        name: "hash-set",
        tokens: &[concat!("Hash", "Set")],
        rationale: "iteration order is unspecified; use a dense bitmap, BTreeSet, or sorted Vec",
        calls: false,
    },
    Rule {
        name: "system-time",
        tokens: &[concat!("System", "Time")],
        rationale: "wall-clock reads make results non-reproducible; use the simulated clock",
        calls: false,
    },
    Rule {
        name: "instant",
        tokens: &[concat!("Ins", "tant")],
        rationale: "monotonic-clock reads make results non-reproducible; use the simulated clock",
        calls: false,
    },
    Rule {
        name: "thread-rng",
        tokens: &[
            concat!("thread", "_rng"),
            concat!("from_", "entropy"),
            concat!("Os", "Rng"),
        ],
        rationale:
            "OS-entropy randomness breaks seed reproducibility; derive RNGs from the run seed",
        calls: false,
    },
    Rule {
        name: "unordered-par-fold",
        tokens: &[
            concat!("par_", "iter"),
            concat!("into_", "par_", "iter"),
            concat!("par_", "bridge"),
            concat!("par_", "chunks"),
        ],
        rationale:
            "parallel folds reduce in nondeterministic order; merge shard results in index order",
        calls: false,
    },
    Rule {
        name: "libm",
        tokens: &[
            "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "powf", "cbrt",
            "hypot", "sin", "cos", "tan", "sin_cos", "asin", "acos", "atan", "atan2", "sinh",
            "cosh", "tanh", "asinh", "acosh", "atanh",
        ],
        rationale: "the platform libm's last bit differs across hosts, so report bytes would too",
        calls: true,
    },
];

/// The crates the determinism contract covers (every source crate
/// except `bench`, whose job is wall-clock measurement).
pub const SCANNED_CRATES: &[&str] = &[
    "accel",
    "analysis",
    "cli",
    "core",
    "costmodel",
    "fleet",
    "models",
    "score",
    "sim",
    "workload",
];

/// One banned-token occurrence that no inline escape covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path of the offending file, relative to the scan root.
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// The specific token that matched.
    pub token: &'static str,
    /// The rule's rationale.
    pub rationale: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: banned token `{}` (rule {}): {}",
            self.path, self.line, self.token, self.rule, self.rationale
        )
    }
}

/// One `lint_determinism.allow` entry: `<path-suffix> <rule> <justification>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Path suffix the entry covers (matched against the finding's
    /// relative path).
    pub path_suffix: String,
    /// The rule the entry silences.
    pub rule: String,
    /// Required free-text justification.
    pub justification: String,
}

/// The parsed committed allowlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    /// The entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the allowlist format: one entry per line
    /// (`<path-suffix> <rule> <justification…>`), `#` comments and
    /// blank lines ignored. A missing justification is a parse error
    /// — every exception must say why it is safe.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let path_suffix = parts.next().unwrap_or_default().to_string();
            let rule = parts.next().unwrap_or_default().to_string();
            let justification = parts.next().unwrap_or_default().trim().to_string();
            if rule.is_empty() || justification.is_empty() {
                return Err(format!(
                    "allowlist line {}: expected `<path-suffix> <rule> <justification>`, got `{line}`",
                    i + 1
                ));
            }
            if !RULES.iter().any(|r| r.name == rule) {
                return Err(format!("allowlist line {}: unknown rule `{rule}`", i + 1));
            }
            entries.push(AllowEntry {
                path_suffix,
                rule,
                justification,
            });
        }
        Ok(Self { entries })
    }
}

/// The result of a full workspace scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Findings not covered by any inline escape or allowlist entry.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched nothing (stale exceptions —
    /// also a failure, so the allowlist can only shrink).
    pub unused_allow_entries: Vec<AllowEntry>,
    /// Findings suppressed by the allowlist (inline escapes are not
    /// counted — they never reach a finding).
    pub allowlisted: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the scan is clean (no findings, no stale entries).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.unused_allow_entries.is_empty()
    }
}

/// True when `hay[start..start + needle_len]` is delimited by
/// non-identifier characters (so `Ins``tant` does not fire inside
/// `Ins``tantiates`).
fn is_token_boundary(hay: &str, start: usize, needle_len: usize) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let before_ok = hay[..start].chars().next_back().is_none_or(|c| !ident(c));
    let after_ok = hay[start + needle_len..]
        .chars()
        .next()
        .is_none_or(|c| !ident(c));
    before_ok && after_ok
}

/// Finds `needle` in `hay` with identifier boundaries on both sides.
fn contains_token(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        if is_token_boundary(hay, start, needle.len()) {
            return true;
        }
        from = start + needle.len();
    }
    false
}

/// Finds a call of the function `name` in `hay`: `.name(` or
/// `::name(`. Both delimiters are non-identifier characters, so no
/// further boundary check is needed.
fn contains_call(hay: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(name) {
        let start = from + pos;
        let before = &hay[..start];
        if (before.ends_with('.') || before.ends_with("::"))
            && hay[start + name.len()..].starts_with('(')
        {
            return true;
        }
        from = start + name.len();
    }
    false
}

/// Whether `line` carries an inline escape for `rule`.
fn has_inline_allow(line: &str, rule: &str) -> bool {
    line.contains(&format!("lint:allow({rule})"))
}

/// Scans one file's source text. `rel_path` is used for reporting and
/// allowlist matching.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = source.lines().collect();
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        // Whole-line comments (incl. doc comments) are prose, not
        // code: `Ins``tant` in documentation is fine.
        if trimmed.starts_with("//") {
            continue;
        }
        // A trailing comment is prose too; the escape marker is still
        // read from the full raw line below.
        let code = match raw.find("//") {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        for rule in RULES {
            for token in rule.tokens {
                let hit = if rule.calls {
                    contains_call(code, token)
                } else {
                    contains_token(code, token)
                };
                if !hit {
                    continue;
                }
                let prev = if i > 0 { lines[i - 1] } else { "" };
                if has_inline_allow(raw, rule.name) || has_inline_allow(prev, rule.name) {
                    continue;
                }
                findings.push(Finding {
                    path: rel_path.to_string(),
                    line: i + 1,
                    rule: rule.name,
                    token,
                    rationale: rule.rationale,
                });
            }
        }
    }
    findings
}

/// Recursively collects `.rs` files under `dir` in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full lint from a workspace root: scans every deterministic
/// crate's `src/`, applies `<root>/lint_determinism.allow` (missing
/// file means an empty allowlist), and reports what survives.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let allow_path = root.join("lint_determinism.allow");
    let allowlist = match fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Allowlist::default(),
        Err(e) => return Err(format!("cannot read {}: {e}", allow_path.display())),
    };

    let mut files = Vec::new();
    for krate in SCANNED_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            return Err(format!(
                "expected source directory {} is missing",
                src.display()
            ));
        }
        rust_files(&src, &mut files)?;
    }

    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    let mut used = vec![false; allowlist.entries.len()];
    for path in &files {
        let source =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        for finding in scan_source(&rel, &source) {
            let entry = allowlist
                .entries
                .iter()
                .position(|a| finding.rule == a.rule && rel.ends_with(&a.path_suffix));
            match entry {
                Some(idx) => {
                    used[idx] = true;
                    report.allowlisted += 1;
                }
                None => report.findings.push(finding),
            }
        }
    }
    report.unused_allow_entries = allowlist
        .entries
        .into_iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|(e, _)| e)
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Assembled so this test file stays clean under its own scan.
    fn hash_map_tok() -> String {
        format!("{}{}", "Hash", "Map")
    }

    #[test]
    fn token_boundaries_respect_identifiers() {
        let tok = concat!("Ins", "tant");
        assert!(contains_token(&format!("use std::time::{tok};"), tok));
        assert!(
            !contains_token(&format!("{tok}iates a provider"), tok),
            "prefix of a longer identifier must not fire"
        );
        assert!(!contains_token(&format!("My{tok}"), tok));
        let par = concat!("par_", "iter");
        assert!(!contains_token(&format!("into_{par}()"), par));
        assert!(contains_token(&format!("x.{par}()"), par));
    }

    #[test]
    fn comment_lines_and_trailing_comments_are_skipped() {
        let tok = hash_map_tok();
        let src = format!(
            "//! docs mention {tok} freely\n// so do comments: {tok}\nlet x = 1; // {tok} here too\n"
        );
        assert!(scan_source("f.rs", &src).is_empty());
    }

    #[test]
    fn findings_carry_position_and_rule() {
        let tok = hash_map_tok();
        let src = format!("fn f() {{\n    let m = {tok}::new();\n}}\n");
        let findings = scan_source("crates/x/src/f.rs", &src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[0].rule, "hash-map");
        assert!(findings[0].to_string().contains("crates/x/src/f.rs:2"));
    }

    #[test]
    fn inline_allow_on_same_or_previous_line() {
        let tok = hash_map_tok();
        let same = format!("let m = {tok}::new(); // lint:allow(hash-map): local scratch\n");
        assert!(scan_source("f.rs", &same).is_empty());
        let prev = format!("// lint:allow(hash-map): local scratch\nlet m = {tok}::new();\n");
        assert!(scan_source("f.rs", &prev).is_empty());
        let wrong_rule = format!("let m = {tok}::new(); // lint:allow(instant)\n");
        assert_eq!(scan_source("f.rs", &wrong_rule).len(), 1);
    }

    #[test]
    fn libm_rule_fires_on_transcendental_calls_only() {
        // Calls are assembled so this file stays clean under its own scan.
        let call = |name: &str| format!("x.{name}(2.0)");
        let rules = |src: String| -> Vec<&str> {
            scan_source("f.rs", &src).iter().map(|f| f.rule).collect()
        };
        assert_eq!(rules(format!("let y = {};\n", call("exp"))), ["libm"]);
        assert_eq!(rules(format!("let y = f64::{}(x);\n", "ln")), ["libm"]);
        assert_eq!(
            rules(format!("let z = {} + {};\n", call("cos"), call("powf"))),
            ["libm", "libm"]
        );
        // Exact operations, other methods and bindings do not fire.
        let exact = format!("let y = {} + {};\n", call("sqrt"), call("powi"));
        assert!(rules(exact).is_empty());
        assert!(rules("let exp = r.expect(\"why\"); let log = exp;\n".to_string()).is_empty());
        let escaped = format!("let y = {}; // lint:allow(libm): pinned\n", call("exp"));
        assert!(rules(escaped).is_empty());
    }

    #[test]
    fn allowlist_requires_justification_and_known_rules() {
        let ok = Allowlist::parse(
            "# comment\ncrates/x/src/f.rs hash-map scratch map, drained in sorted order\n",
        )
        .unwrap();
        assert_eq!(ok.entries.len(), 1);
        assert!(Allowlist::parse("crates/x/src/f.rs hash-map\n").is_err());
        assert!(Allowlist::parse("crates/x/src/f.rs no-such-rule why\n").is_err());
    }

    #[test]
    fn workspace_scan_is_clean() {
        // Self-hosting check from the unit suite too: the committed
        // tree must lint clean (the dedicated integration test and CI
        // gate enforce the same).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run_lint(&root).expect("lint runs");
        assert!(
            report.is_clean(),
            "determinism lint found:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.files_scanned > 30, "scan saw the whole workspace");
    }
}

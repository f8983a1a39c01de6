//! Docs lint: the prose must not rot.
//!
//! Validates, for the repo's top-level documents:
//!
//! * every relative markdown link `[text](path)` points at a file that
//!   exists (external `http(s)://` links are skipped — CI has no
//!   network);
//! * every in-document anchor `[text](#slug)` (and cross-document
//!   `[text](FILE.md#slug)`) resolves to a heading whose GitHub slug
//!   matches;
//! * every `§N` section reference inside DESIGN.md resolves to an
//!   actual `## N.` heading — stale cross-references after a renumber
//!   fail here, not in a reader's head;
//! * every repo source path mentioned in backticks (`crates/...`,
//!   `tests/...`) exists on disk;
//! * every backticked snake_case name of four or more words — a test, a
//!   function, a metric field — occurs in the Rust sources, so a deleted
//!   or renamed test leaves no stale citation behind;
//! * every `repro` command line, in a code span or a code block, names
//!   only `--only` keys the binary accepts (its `KEYS`) and no
//!   positional target, which it rejects;
//! * every backticked module path `dgf-<crate>::<module>` names a module
//!   file of that crate.
//!
//! CI runs this as the docs-lint step (`cargo test --test docs_links`).

use std::collections::BTreeSet;
use std::path::PathBuf;

const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "EXPERIMENTS_RESULTS.md",
    "ROADMAP.md",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_doc(name: &str) -> String {
    let path = repo_root().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// GitHub's heading-to-anchor slug: lowercase, spaces to hyphens,
/// punctuation (except hyphens/underscores) dropped.
fn slug(heading: &str) -> String {
    let mut out = String::new();
    for ch in heading.trim().chars() {
        let ch = ch.to_ascii_lowercase();
        match ch {
            'a'..='z' | '0'..='9' | '_' | '-' => out.push(ch),
            ' ' => out.push('-'),
            _ => {}
        }
    }
    out
}

/// All heading slugs of a document, with GitHub's `-1`, `-2` suffixes
/// for duplicates.
fn heading_slugs(text: &str) -> BTreeSet<String> {
    let mut seen: Vec<String> = Vec::new();
    let mut out = BTreeSet::new();
    let mut in_code = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            continue;
        }
        if in_code || !line.starts_with('#') {
            continue;
        }
        let heading = line.trim_start_matches('#');
        if heading.trim().is_empty() {
            continue;
        }
        let base = slug(heading.trim_matches('`'));
        let dup = seen.iter().filter(|s| **s == base).count();
        seen.push(base.clone());
        if dup == 0 {
            out.insert(base);
        } else {
            out.insert(format!("{base}-{dup}"));
        }
    }
    out
}

/// Extract `[text](target)` links, skipping fenced code blocks and
/// inline code spans.
fn links(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_code = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            continue;
        }
        if in_code {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'[' {
                if let Some(close) = line[i..].find("](").map(|p| i + p) {
                    if let Some(end) = line[close + 2..].find(')').map(|p| close + 2 + p) {
                        out.push(line[close + 2..end].to_owned());
                        i = end + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    out
}

#[test]
fn relative_links_and_anchors_resolve() {
    let root = repo_root();
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = read_doc(doc);
        for link in links(&text) {
            if link.starts_with("http://") || link.starts_with("https://") {
                continue;
            }
            let (path_part, anchor) = match link.split_once('#') {
                Some((p, a)) => (p, Some(a.to_owned())),
                None => (link.as_str(), None),
            };
            // Resolve the file the link points at (empty path = self).
            let target_doc: Option<String> = if path_part.is_empty() {
                Some((*doc).to_owned())
            } else {
                let target = root.join(path_part);
                if !target.exists() {
                    broken.push(format!("{doc}: [{link}] -> missing file {path_part}"));
                    continue;
                }
                path_part.ends_with(".md").then(|| path_part.to_owned())
            };
            if let (Some(anchor), Some(target_doc)) = (anchor, target_doc) {
                let target_text =
                    if target_doc == *doc { text.clone() } else { read_doc(&target_doc) };
                if !heading_slugs(&target_text).contains(&anchor) {
                    broken.push(format!(
                        "{doc}: [{link}] -> no heading with slug #{anchor} in {target_doc}"
                    ));
                }
            }
        }
    }
    assert!(broken.is_empty(), "broken markdown links:\n  {}", broken.join("\n  "));
}

#[test]
fn design_section_references_resolve() {
    let text = read_doc("DESIGN.md");
    // Sections actually present: "## 7. Failure model ..." etc.
    let mut sections = BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("## ") {
            if let Some(num) = rest.split('.').next() {
                if let Ok(n) = num.trim().parse::<u32>() {
                    sections.insert(n);
                }
            }
        }
    }
    assert!(!sections.is_empty(), "DESIGN.md has no numbered `## N.` sections");

    // Every §N reference anywhere in the repo's docs must name one.
    let mut broken = Vec::new();
    for doc in DOCS {
        let doc_text = read_doc(doc);
        for (idx, line) in doc_text.lines().enumerate() {
            let mut rest = line;
            while let Some(pos) = rest.find('§') {
                rest = &rest['§'.len_utf8() + pos..];
                let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
                if digits.is_empty() {
                    continue;
                }
                let n: u32 = digits.parse().unwrap();
                // §N refs that cite the *paper* ("paper §5.3", "the
                // paper's §8") are out of scope; only DESIGN.md's own
                // architecture sections are checked, and those never
                // use a dotted sub-number.
                let dotted = rest[digits.len()..].starts_with('.');
                if *doc == "DESIGN.md" && !dotted && !paperish(line) && !sections.contains(&n) {
                    broken.push(format!("DESIGN.md:{}: §{n} has no `## {n}.` section", idx + 1));
                }
            }
        }
    }
    assert!(broken.is_empty(), "stale section references:\n  {}", broken.join("\n  "));
}

/// Lines citing the source paper's numbering rather than DESIGN.md's.
fn paperish(line: &str) -> bool {
    let l = line.to_ascii_lowercase();
    l.contains("paper") || l.contains("algorithm") || l.contains("listing")
}

/// `(line index, trimmed span)` of every inline code span outside fenced
/// code blocks.
fn backticked(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut in_code = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            continue;
        }
        if !in_code {
            out.extend(line.split('`').skip(1).step_by(2).map(|s| (idx, s.trim())));
        }
    }
    out
}

#[test]
fn backticked_repo_paths_exist() {
    let root = repo_root();
    let mut broken = Vec::new();
    for doc in DOCS {
        for (idx, candidate) in backticked(&read_doc(doc)) {
            let looks_like_path = (candidate.starts_with("crates/")
                || candidate.starts_with("tests/"))
                && candidate
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "/._-".contains(c));
            if looks_like_path && !root.join(candidate).exists() {
                broken.push(format!("{doc}:{}: `{candidate}` does not exist", idx + 1));
            }
        }
    }
    assert!(broken.is_empty(), "docs cite missing paths:\n  {}", broken.join("\n  "));
}

/// Append every `.rs` file under `dir` to `out`.
fn read_sources(dir: &std::path::Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            read_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).unwrap());
            out.push('\n');
        }
    }
}

/// A snake_case name of at least four words: `a_join_reads_its_…`.
fn is_long_snake_case(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_lowercase())
        && name.split('_').count() >= 4
        && name.split('_').all(|w| {
            !w.is_empty() && w.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
        })
}

/// Whether `name` occurs in `text` as a whole identifier.
fn has_identifier(text: &str, name: &str) -> bool {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    text.match_indices(name).any(|(at, _)| {
        !word(text[..at].chars().next_back()) && !word(text[at + name.len()..].chars().next())
    })
}

#[test]
fn backticked_long_names_occur_in_the_sources() {
    let root = repo_root();
    let mut sources = String::new();
    for dir in ["crates", "tests", "src", "examples", "benchmark/src"] {
        read_sources(&root.join(dir), &mut sources);
    }
    let mut broken = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        for (idx, span) in backticked(&read_doc(doc)) {
            let name = span.rsplit("::").next().unwrap_or(span);
            if is_long_snake_case(name) && !has_identifier(&sources, name) {
                broken.push(format!("{doc}:{}: `{name}` is in no .rs file", idx + 1));
            }
        }
    }
    assert!(broken.is_empty(), "docs cite names the code lacks:\n  {}", broken.join("\n  "));
}

/// Every inline code span and every fenced code line of `text`, with
/// its line index.
fn code_fragments(text: &str) -> Vec<(usize, &str)> {
    let mut out = backticked(text);
    let mut in_code = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
        } else if in_code {
            out.push((idx, line));
        }
    }
    out
}

/// The `--only` keys `repro` accepts: the strings of its `KEYS` constant.
fn repro_keys() -> BTreeSet<String> {
    let path = repo_root().join("crates/bench/src/bin/repro.rs");
    let src = std::fs::read_to_string(&path).unwrap();
    let start = src.find("const KEYS").expect("repro declares its KEYS");
    let decl = &src[start..start + src[start..].find("];").expect("KEYS ends")];
    decl.split('"').skip(1).step_by(2).map(str::to_owned).collect()
}

#[test]
fn repro_command_lines_name_keys_it_accepts() {
    let keys = repro_keys();
    assert!(keys.contains("agg"), "read no KEYS from repro.rs: {keys:?}");
    let mut broken = Vec::new();
    for doc in DOCS {
        for (idx, fragment) in code_fragments(&read_doc(doc)) {
            let tokens: Vec<&str> = fragment.split_whitespace().collect();
            let is_repro = |t: &&str| *t == "repro" || t.ends_with("/repro");
            let Some(at) = tokens.iter().position(is_repro) else {
                continue;
            };
            // `cargo run … --bin repro -- <args>`: the program's own
            // arguments start after cargo's separator.
            let args = match &tokens[at + 1..] {
                ["--", rest @ ..] => rest,
                rest => rest,
            };
            if let Some(first) = args.first().filter(|a| !a.starts_with('-')) {
                broken.push(format!("{doc}:{}: `repro {first}` is not an argument", idx + 1));
            }
            for pair in args.windows(2).filter(|w| w[0] == "--only") {
                for key in pair[1].split(',').filter(|k| !keys.contains(*k)) {
                    broken.push(format!("{doc}:{}: `--only {key}` is not a repro key", idx + 1));
                }
            }
        }
    }
    assert!(broken.is_empty(), "docs name repro runs it rejects:\n  {}", broken.join("\n  "));
}

#[test]
fn backticked_module_paths_exist() {
    let root = repo_root();
    let mut broken = Vec::new();
    for doc in DOCS {
        for (idx, span) in backticked(&read_doc(doc)) {
            let crate_path = span.strip_prefix("dgf-").and_then(|s| s.split_once("::"));
            let Some((krate, path)) = crate_path else {
                continue;
            };
            let module = path.split("::").next().unwrap_or(path);
            if !module.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
                continue; // a type or a constant, not a module
            }
            let src = root.join("crates").join(krate).join("src");
            if !src.join(format!("{module}.rs")).exists() && !src.join(module).is_dir() {
                broken.push(format!("{doc}:{}: `{span}` names no module file", idx + 1));
            }
        }
    }
    assert!(broken.is_empty(), "docs cite missing modules:\n  {}", broken.join("\n  "));
}

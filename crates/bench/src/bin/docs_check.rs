//! Repository consistency checks: fails CI when docs rot, a second
//! transform kernel creeps into production code, a second place starts
//! creating threads, or `unsafe` code appears outside the vector lanes.
//!
//! **Links.** Scans every `*.md` at the repository root plus `docs/*.md` for
//! inline links and images (`](target)`) and verifies that each
//! **relative** target resolves to a real file or directory, after
//! stripping any `#fragment`. External schemes (`http://`, `https://`,
//! `mailto:`) and pure in-page anchors (`#section`) are out of scope —
//! this gate exists because relative links silently break when files
//! move, while external ones fail loudly in a browser.
//!
//! Std-only by design (no markdown crate in the tree): a hand-rolled
//! scan for `](` outside fenced code blocks is enough for the
//! CommonMark subset these docs use. Reference-style links (`[x]: url`)
//! are not used in this repo and are not checked.
//!
//! **One kernel.** Production code runs exactly one NTT implementation,
//! `cofhee_poly::HarveyNtt`. The strict kernels (`ntt::forward_inplace`,
//! `ntt::inverse_inplace`, `ntt::negacyclic_mul`) are its no-headroom
//! fallback and the tests' bit-exactness oracle, so every `*.rs` under
//! `crates/*/src` is scanned for a call to one of them outside a
//! `#[cfg(test)]` item (a file that opens with `#![cfg(test)]` is one
//! such item as a whole). Exempt: `crates/poly/src/ntt.rs` (the
//! definitions), `crates/poly/src/lazy.rs` (the fallback), and three
//! bench bins: `hotpath_profile.rs` (the strict-vs-lazy ratio gate),
//! `ablation_scaling.rs` (the §VIII-A ablation), which measure the strict
//! kernels on purpose, and this file, which names them to look for them.
//! Every other bench bin times the production kernel. The AVX-512 IFMA
//! lanes (`crates/poly/src/ifma.rs`) are not a second kernel: they belong
//! to `HarveyNtt`, which decides once, when a plan is built, whether its
//! transforms run there, and they are pinned bit for bit to its scalar
//! stages and to the strict kernels.
//!
//! **One unsafe module.** Library code writes `unsafe` in one file, the
//! vector lanes (`crates/poly/src/ifma.rs`): the other library crates
//! forbid `unsafe_code` and `cofhee_poly` denies it outside that module,
//! but the bench bins declare nothing. The scan looks for `unsafe {`,
//! `unsafe fn`, `unsafe impl`, `unsafe trait` and `unsafe extern` in every
//! line of code under `crates/*/src`, bins and test items included.
//!
//! **One fan-out.** Library code creates threads in one function,
//! `cofhee_core::fan_out` — its callers decide what a task is (a limb's
//! stream, a share of Fig. 6's CPU towers, a wave node, a CRT chunk) but
//! none of them spawns. The same scan therefore looks for
//! `thread::scope` / `thread::spawn` outside `#[cfg(test)]` items and
//! allows one hit, in `crates/core/src/stream.rs` (the function).
//!
//! ```sh
//! cargo run --release -p cofhee_bench --bin docs_check
//! ```
//!
//! Exit status 0 when every link resolves and no stray call is found;
//! 1 with one line per finding otherwise.

use std::path::{Path, PathBuf};

/// Repository root, derived from this crate's manifest dir at compile
/// time (`crates/bench` → two levels up). Keeps the checker working
/// from any working directory `cargo run` is invoked in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root exists")
}

/// Extracts inline link targets from one markdown source, skipping
/// fenced code blocks (``` … ```) and inline code spans (`…`), where a
/// literal `](` is example text, not a link.
fn link_targets(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in src.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Drop inline code spans so `[a](b)` in backticks is ignored.
        let mut cleaned = String::with_capacity(line.len());
        let mut in_code = false;
        for ch in line.chars() {
            if ch == '`' {
                in_code = !in_code;
            } else if !in_code {
                cleaned.push(ch);
            }
        }
        let mut rest = cleaned.as_str();
        while let Some(pos) = rest.find("](") {
            rest = &rest[pos + 2..];
            if let Some(end) = rest.find(')') {
                let target = rest[..end].trim();
                // `](url "title")` — keep the url part only.
                let target = target.split_whitespace().next().unwrap_or("");
                if !target.is_empty() {
                    out.push((lineno + 1, target.to_string()));
                }
                rest = &rest[end + 1..];
            } else {
                break;
            }
        }
    }
    out
}

/// Whether a target is a relative intra-repo path this checker owns.
fn is_relative(target: &str) -> bool {
    !(target.starts_with('#')
        || target.starts_with('/')
        || target.contains("://")
        || target.starts_with("mailto:"))
}

/// The strict transform kernels, as production code would name them.
const STRICT_KERNELS: [&str; 3] =
    ["ntt::forward_inplace", "ntt::inverse_inplace", "ntt::negacyclic_mul"];

/// Files under `crates/` allowed to call [`STRICT_KERNELS`] in
/// production code (relative to the repository root).
const STRICT_KERNEL_ALLOWED: [&str; 5] = [
    "crates/poly/src/ntt.rs",
    "crates/poly/src/lazy.rs",
    "crates/bench/src/bin/hotpath_profile.rs",
    "crates/bench/src/bin/ablation_scaling.rs",
    "crates/bench/src/bin/docs_check.rs",
];

/// `unsafe` as code writes it — not the `unsafe_code` lint's name.
const UNSAFE: [&str; 5] = ["unsafe {", "unsafe fn", "unsafe impl", "unsafe trait", "unsafe extern"];

/// Files allowed to write [`UNSAFE`]: the vector lanes, and this file,
/// which names it to look for it.
const UNSAFE_ALLOWED: [&str; 2] = ["crates/poly/src/ifma.rs", "crates/bench/src/bin/docs_check.rs"];

/// Lines of one Rust source that write `unsafe` code, outside comments.
fn unsafe_lines(src: &str) -> Vec<usize> {
    let writes = |line: &str| {
        let code = line.trim_start();
        !code.starts_with("//") && UNSAFE.iter().any(|u| code.contains(u))
    };
    src.lines().enumerate().filter(|(_, line)| writes(line)).map(|(i, _)| i + 1).collect()
}

/// What creates a thread, as library code would name it.
const THREAD_CALLS: [&str; 2] = ["thread::scope", "thread::spawn"];

/// Files allowed to name [`THREAD_CALLS`] in production code, and how
/// many times: `fan_out` itself, and this file, which names them to look
/// for them.
const THREAD_CALLS_ALLOWED: [(&str, usize); 2] =
    [("crates/core/src/stream.rs", 1), ("crates/bench/src/bin/docs_check.rs", usize::MAX)];

/// Lines of one Rust source that name one of `names` outside comments
/// and outside `#[cfg(test)]` items — none in a module file that gates
/// itself with `#![cfg(test)]`. Relies on rustfmt (enforced in CI): an
/// item closes with a `}` — or, brace-less, ends in `;` — at the
/// indentation its attribute opened at.
fn calls_outside_tests(src: &str, names: &[&'static str]) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    let first_code = src.lines().find(|l| !l.is_empty() && !l.starts_with("//"));
    if first_code == Some("#![cfg(test)]") {
        return out;
    }
    let mut lines = src.lines().enumerate();
    while let Some((lineno, line)) = lines.next() {
        let code = line.trim_start();
        if code.starts_with("//") {
            continue;
        }
        if code.starts_with("#[cfg(test)]") {
            let indent = line.len() - code.len();
            for (_, l) in lines.by_ref() {
                let body = l.trim_start();
                if l.len() - body.len() == indent && (body.starts_with('}') || body.ends_with(';'))
                {
                    break;
                }
            }
            continue;
        }
        out.extend(names.iter().filter(|k| code.contains(**k)).map(|k| (lineno + 1, *k)));
    }
    out
}

/// Every `*.rs` below `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Prints one line per stray strict-kernel call, per thread created
/// outside `fan_out` and per `unsafe` outside the vector lanes; returns
/// how many.
fn check_sources(root: &Path) -> usize {
    let mut files = Vec::new();
    let Ok(crates) = std::fs::read_dir(root.join("crates")) else { return 0 };
    for krate in crates.flatten() {
        rust_sources(&krate.path().join("src"), &mut files);
    }
    files.sort();
    let (mut stray, mut spawns, mut unsafes) = (0usize, 0usize, 0usize);
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file).to_string_lossy();
        let src = std::fs::read_to_string(file).expect("listed file is readable");
        if !STRICT_KERNEL_ALLOWED.contains(&rel.as_ref()) {
            for (line, kernel) in calls_outside_tests(&src, &STRICT_KERNELS) {
                stray += 1;
                println!("strict kernel outside tests: {rel}:{line}: {kernel}");
            }
        }
        let allowed = THREAD_CALLS_ALLOWED.iter().find(|(p, _)| rel == *p).map_or(0, |(_, n)| *n);
        for (line, call) in calls_outside_tests(&src, &THREAD_CALLS).into_iter().skip(allowed) {
            spawns += 1;
            println!("thread created outside cofhee_core::fan_out: {rel}:{line}: {call}");
        }
        if !UNSAFE_ALLOWED.contains(&rel.as_ref()) {
            for line in unsafe_lines(&src) {
                unsafes += 1;
                println!("unsafe outside the vector lanes: {rel}:{line}");
            }
        }
    }
    println!(
        "docs_check: {} sources, {stray} strict-kernel calls outside tests, {spawns} threads \
         created outside fan_out, {unsafes} unsafe lines outside the vector lanes",
        files.len()
    );
    stray + spawns + unsafes
}

/// Prints one line per broken relative link; returns how many.
fn check_links(root: &Path) -> usize {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in [root.to_path_buf(), root.join("docs")] {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "md") {
                files.push(path);
            }
        }
    }
    files.sort();

    let mut broken = 0usize;
    let mut checked = 0usize;
    for file in &files {
        let src = std::fs::read_to_string(file).expect("listed file is readable");
        let base = file.parent().expect("files live in a directory");
        for (line, target) in link_targets(&src) {
            if !is_relative(&target) {
                continue;
            }
            checked += 1;
            let path_part = target.split('#').next().unwrap_or("");
            if !base.join(path_part).exists() {
                broken += 1;
                let rel = file.strip_prefix(root).unwrap_or(file);
                println!("broken link: {}:{line}: ]({target})", rel.display());
            }
        }
    }

    println!("docs_check: {} files, {checked} relative links, {broken} broken", files.len());
    broken
}

fn main() {
    let root = repo_root();
    if check_links(&root) + check_sources(&root) > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{calls_outside_tests, unsafe_lines, STRICT_KERNELS, THREAD_CALLS};

    fn strict_kernel_calls(src: &str) -> Vec<(usize, &'static str)> {
        calls_outside_tests(src, &STRICT_KERNELS)
    }

    #[test]
    fn scan_skips_comments_and_test_items_only() {
        let src = "\
//! Docs may say ntt::forward_inplace.
fn a() {
    #[cfg(test)]
    fn probe() {
        ntt::inverse_inplace();
    }
    ntt::negacyclic_mul();
}
#[cfg(test)]
use x::ntt::forward_inplace;
fn b() { cofhee_poly::ntt::forward_inplace(); }
#[cfg(test)]
mod tests {
    fn t() { ntt::forward_inplace(); }
}
";
        assert_eq!(
            strict_kernel_calls(src),
            vec![(7, "ntt::negacyclic_mul"), (11, "ntt::forward_inplace")]
        );
        // A module file gated as a whole is one test item.
        let gated = format!("//! A test module.\n\n#![cfg(test)]\n{src}");
        assert_eq!(strict_kernel_calls(&gated), vec![]);
        assert_eq!(strict_kernel_calls(&format!("fn a() {{}}\n{gated}")).len(), 2);
    }

    #[test]
    fn scan_finds_threads_created_outside_tests() {
        let src = "\
/// Uses std::thread::scope.
fn fan() {
    std::thread::scope(|scope| {
        scope.spawn(|| ());
    });
}
fn stray() { std::thread::spawn(|| ()); }
#[cfg(test)]
mod tests {
    fn t() { std::thread::spawn(|| ()); }
}
";
        assert_eq!(
            calls_outside_tests(src, &THREAD_CALLS),
            vec![(3, "thread::scope"), (7, "thread::spawn")]
        );
    }

    #[test]
    fn scan_finds_unsafe_code_but_not_the_lint_name() {
        let src = "\
#![forbid(unsafe_code)]
// unsafe { in a comment }
fn a() {
    let x = unsafe { read() };
}
unsafe fn b() {}
#[cfg(test)]
mod tests {
    unsafe impl Send for X {}
}
";
        assert_eq!(unsafe_lines(src), vec![4, 6, 9]);
    }
}

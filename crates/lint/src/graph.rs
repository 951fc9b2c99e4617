//! Workspace symbol table and call graph for the interprocedural rules:
//! the cross-function half of L3 `lock-order`, L9 `determinism` and
//! L10 `lock-across-io`.
//!
//! Same hermetic constraint as the rest of the linter: token-stream over
//! the scrubbed source, no `syn`, no external crates. Functions are
//! recognised by `fn name(`, bodies by brace matching, call sites by
//! `name(` / `.name(` tokens. Names resolve per crate by identifier only
//! — impl blocks are not tracked, so same-named functions in one crate
//! merge into one node. That makes propagation an *over*-approximation
//! (a finding may cite a call that resolves elsewhere at runtime), never
//! an under-approximation; suppress genuinely-wrong merges with a
//! `// lint: allow(..)` marker at the call site.
//!
//! Ubiquitous std method names (`get`, `insert`, `lock`, `map`, ...) are
//! excluded from call edges entirely ([`STD_BLOCKLIST`]): `Pool::get`
//! reaches I/O, and without the blocklist every `map.get()` under a
//! latch would light up L10. The distinctive workspace names
//! (`evict_page`, `read_page`, `write_ssd_async`, ...) carry all real
//! propagation.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use crate::Prepared;

/// `IoManager` submit/read/write entry points: the seeds of the
/// io-reaching fixpoint. Query methods (`ssd_overloaded`, queue depths,
/// `page_size`, stats getters) are deliberately absent — holding a latch
/// across a metadata peek is fine.
pub(crate) const IO_SEEDS: &[&str] = &[
    "read_disk",
    "read_disk_run",
    "read_ssd",
    "write_disk_async",
    "write_disk_sync",
    "write_disk_run_async",
    "write_ssd_async",
    "write_ssd_sync",
];

/// Method names so common in std that a call edge through them would be
/// noise (and, worse, would let `Pool::get` poison every `map.get()`).
const STD_BLOCKLIST: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "take",
    "replace",
    "push",
    "pop",
    "clear",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "entry",
    "or_insert",
    "or_default",
    "keys",
    "values",
    "values_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
    "retain",
    "extend",
    "append",
    "split",
    "join",
    "clone",
    "to_vec",
    "to_string",
    "as_slice",
    "as_mut_slice",
    "as_str",
    "as_bytes",
    "as_ref",
    "as_mut",
    "borrow",
    "borrow_mut",
    "lock",
    "read",
    "write",
    "try_lock",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "new",
    "with_capacity",
    "default",
    "from",
    "into",
    "try_from",
    "try_into",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "for_each",
    "position",
    "find",
    "any",
    "all",
    "count",
    "sum",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "rev",
    "zip",
    "chain",
    "skip",
    "skip_while",
    "take_while",
    "step_by",
    "enumerate",
    "collect",
    "copied",
    "cloned",
    "flatten",
    "last",
    "next",
    "nth",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "select_nth_unstable",
    "binary_search",
    "resize",
    "resize_with",
    "truncate",
    "reserve",
    "fill",
    "copy_from_slice",
    "clamp",
    "saturating_sub",
    "saturating_add",
    "checked_sub",
    "checked_add",
    "checked_mul",
    "wrapping_add",
    "wrapping_sub",
    "to_owned",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "fmt",
    "drop",
    "trim",
    "trim_start",
    "trim_end",
    "starts_with",
    "ends_with",
    "parse",
    "chars",
    "bytes",
    "lines",
    "push_str",
];

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "mut", "move", "else", "in",
    "as", "ref", "dyn", "where", "unsafe", "use", "pub", "crate", "super", "Self", "self", "impl",
    "struct", "enum", "trait", "type", "const", "static", "mod", "box", "async", "await", "Some",
    "None", "Ok", "Err",
];

/// Type-name wrappers that may sit between a field/param name and its
/// `HashMap`/`HashSet` payload without breaking the association
/// (`map: Mutex<HashMap<..>>` still declares `map` hash-typed).
fn gap_is_wrapper(gap: &str) -> bool {
    gap.chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '<' | '&' | ' ' | ':' | '\''))
}

/// One function definition found in the token stream.
pub(crate) struct FnDef {
    pub name: String,
    pub krate: String,
    pub in_test: bool,
    /// Callee names (blocklist/keywords already filtered).
    pub callees: Vec<String>,
    /// Lock classes directly acquired in the body (`lock_order` indices).
    pub classes: Vec<usize>,
    /// The declared return type names a guard (`MutexGuard`,
    /// `RwLock*Guard`, or a local `Guard` type).
    pub returns_guard: bool,
}

pub(crate) struct Graph {
    pub fns: Vec<FnDef>,
    /// Names (workspace-wide) whose call transitively reaches an
    /// `IoManager` seed; includes the seed names themselves.
    pub io_reaching: HashSet<String>,
    /// (crate, fn) -> lock classes the fn directly acquires.
    pub fn_classes: HashMap<(String, String), Vec<usize>>,
    /// (crate, fn) that return a live guard to their caller.
    pub guard_fns: HashSet<(String, String)>,
    /// crate -> identifiers declared with a `HashMap`/`HashSet` type.
    pub hash_idents: HashMap<String, HashSet<String>>,
}

/// Crate key for a repo-relative path: `crates/<k>/...` -> `<k>`,
/// anything else (top-level `tests/`, `examples/`) -> "".
pub(crate) fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string()
}

/// Crates whose state feeds the deterministic simulation (L9 scope).
pub(crate) const SIM_CRATES: &[&str] = &["core", "bufpool", "iosim", "wal", "workload"];

impl Graph {
    pub fn build(files: &[(PathBuf, Prepared)], lock_order: &[String]) -> Graph {
        let mut g = Graph {
            fns: Vec::new(),
            io_reaching: HashSet::new(),
            fn_classes: HashMap::new(),
            guard_fns: HashSet::new(),
            hash_idents: HashMap::new(),
        };
        for (rel, p) in files {
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let krate = crate_of(&rel_str);
            collect_fns(&krate, p, lock_order, &mut g.fns);
            collect_hash_idents(p, g.hash_idents.entry(krate.clone()).or_default());
        }

        // Test-module helpers stay out of the interprocedural tables:
        // name-based merging would otherwise let a test fixture's lock
        // use contaminate same-named product functions.
        for f in g.fns.iter().filter(|f| !f.in_test) {
            let key = (f.krate.clone(), f.name.clone());
            g.fn_classes
                .entry(key.clone())
                .or_default()
                .extend(f.classes.iter().copied());
            if f.returns_guard && !f.classes.is_empty() {
                g.guard_fns.insert(key);
            }
        }
        for v in g.fn_classes.values_mut() {
            v.sort_unstable();
            v.dedup();
        }

        // Io-reaching fixpoint over names. Name-based and crate-blind:
        // an over-approximation, by design (see module docs).
        let mut reach: HashSet<String> = IO_SEEDS.iter().map(|s| s.to_string()).collect();
        loop {
            let mut grew = false;
            for f in g.fns.iter().filter(|f| !f.in_test) {
                if reach.contains(&f.name) {
                    continue;
                }
                if f.callees.iter().any(|c| reach.contains(c)) {
                    reach.insert(f.name.clone());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        g.io_reaching = reach;
        g
    }
}

/// Extract `ident:`-declared `HashMap`/`HashSet` names plus
/// `let name = HashMap::..` bindings.
fn collect_hash_idents(p: &Prepared, out: &mut HashSet<String>) {
    for code in &p.code {
        for pat in ["HashMap<", "HashSet<"] {
            let mut search = 0usize;
            while let Some(pos) = code[search..].find(pat) {
                let at = search + pos;
                search = at + pat.len();
                // Find the nearest preceding `ident:`; the gap between the
                // colon and the container may only hold type-wrapper text.
                let before = &code[..at];
                let Some(colon) = before.rfind(':') else {
                    continue;
                };
                // Skip path separators `::` (e.g. `std::collections::`).
                if colon > 0 && before.as_bytes()[colon - 1] == b':' {
                    // Walk left past the whole path to the real decl colon.
                    let head = before[..colon - 1].trim_end_matches(|c: char| {
                        c.is_ascii_alphanumeric() || c == '_' || c == ':'
                    });
                    let Some(c2) = head.rfind(':') else { continue };
                    if c2 > 0 && head.as_bytes()[c2 - 1] == b':' {
                        continue;
                    }
                    if !gap_is_wrapper(&head[c2 + 1..]) {
                        continue;
                    }
                    push_ident_before(&head[..c2], out);
                    continue;
                }
                if !gap_is_wrapper(&before[colon + 1..]) {
                    continue;
                }
                push_ident_before(&before[..colon], out);
            }
        }
        let t = code.trim_start();
        if (code.contains("HashMap::") || code.contains("HashSet::")) && t.starts_with("let ") {
            if let Some(name) = crate::parse_let_binding(t) {
                out.insert(name);
            }
        }
    }
}

fn push_ident_before(text: &str, out: &mut HashSet<String>) {
    let b = text.trim_end().as_bytes();
    let end = b.len();
    let mut start = end;
    while start > 0 && crate::is_ident_byte(b[start - 1]) {
        start -= 1;
    }
    if start < end && !b[start].is_ascii_digit() {
        out.insert(text.trim_end()[start..].to_string());
    }
}

/// Position of `word` in `code` as a standalone token.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut search = 0usize;
    while let Some(pos) = code[search..].find(word) {
        let at = search + pos;
        search = at + word.len();
        let before_ok = at == 0 || !crate::is_ident_byte(code.as_bytes()[at - 1]);
        let after = at + word.len();
        let after_ok = after >= code.len() || !crate::is_ident_byte(code.as_bytes()[after]);
        if before_ok && after_ok {
            return Some(at);
        }
    }
    None
}

/// Find every `fn` definition in a prepared file and record its body
/// span, callees, direct lock acquisitions and guard-returning status.
fn collect_fns(krate: &str, p: &Prepared, lock_order: &[String], out: &mut Vec<FnDef>) {
    let mut ln = 0usize;
    let mut col = 0usize;
    while ln < p.code.len() {
        let code = &p.code[ln];
        let Some(pos) = find_word_from(code, col, "fn") else {
            ln += 1;
            col = 0;
            continue;
        };
        col = pos + 2;
        let name: String = code[pos + 2..]
            .trim_start()
            .chars()
            .take_while(|&c| crate::is_ident_byte(c as u8))
            .collect();
        if name.is_empty() {
            continue;
        }
        // Walk forward from the name to the body `{` (or a `;` for a
        // bodyless trait/extern decl), collecting the signature text.
        let mut sig = String::new();
        let mut paren = 0i32;
        let mut l = ln;
        let mut c = pos + 2;
        let mut body_start: Option<(usize, usize)> = None;
        'sig: while l < p.code.len() {
            let line = &p.code[l];
            let bytes = line.as_bytes();
            while c < bytes.len() {
                let ch = bytes[c] as char;
                match ch {
                    '(' => paren += 1,
                    ')' => paren -= 1,
                    '{' if paren == 0 => {
                        body_start = Some((l, c));
                        break 'sig;
                    }
                    ';' if paren == 0 => break 'sig,
                    _ => {}
                }
                sig.push(ch);
                c += 1;
            }
            sig.push(' ');
            l += 1;
            c = 0;
        }
        let Some((bl, bc)) = body_start else {
            continue;
        };
        let returns_guard = sig.contains("->") && sig.contains("Guard");
        // Brace-match the body.
        let mut depth = 0usize;
        let mut el = bl;
        let mut ec = bc;
        'body: while el < p.code.len() {
            let bytes = p.code[el].as_bytes();
            while ec < bytes.len() {
                match bytes[ec] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break 'body;
                        }
                    }
                    _ => {}
                }
                ec += 1;
            }
            el += 1;
            ec = 0;
        }
        let body = (bl, el.min(p.code.len().saturating_sub(1)));
        let mut callees = Vec::new();
        let mut classes = Vec::new();
        for b_ln in body.0..=body.1 {
            let line = &p.code[b_ln];
            if line.trim_start().starts_with('#') {
                continue; // attributes: #[derive(..)], #[cfg(..)]
            }
            callees_in_line(line, &mut callees);
            for pat in [".lock()", ".read()", ".write()"] {
                let mut search = 0usize;
                while let Some(pp) = line[search..].find(pat) {
                    let at = search + pp;
                    search = at + pat.len();
                    if let Some(ident) = crate::receiver_ident(&line[..at + 1]) {
                        if let Some(cl) = lock_order.iter().position(|c| *c == ident) {
                            classes.push(cl);
                        }
                    }
                }
            }
        }
        callees.sort_unstable();
        callees.dedup();
        classes.sort_unstable();
        classes.dedup();
        out.push(FnDef {
            name,
            krate: krate.to_string(),
            in_test: p.in_test[ln],
            callees,
            classes,
            returns_guard,
        });
    }
}

fn find_word_from(code: &str, from: usize, word: &str) -> Option<usize> {
    if from >= code.len() {
        return None;
    }
    find_word(&code[from..], word).map(|p| p + from)
}

/// The call-site name whose `(` sits at byte `open`, if this looks like
/// a genuine call: excludes keywords, macro invocations (`name!(`),
/// `fn` declarations and the std blocklist.
pub(crate) fn callee_before(code: &str, open: usize) -> Option<&str> {
    let b = code.as_bytes();
    if b.get(open) != Some(&b'(') {
        return None;
    }
    let mut end = open;
    if end > 0 && b[end - 1] == b'!' {
        return None; // macro
    }
    while end > 0 && b[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && crate::is_ident_byte(b[start - 1]) {
        start -= 1;
    }
    if start == end || b[start].is_ascii_digit() {
        return None;
    }
    let name = &code[start..end];
    // `fn name(` is a declaration, not a call.
    if code[..start].trim_end().ends_with("fn") {
        return None;
    }
    if KEYWORDS.contains(&name) || STD_BLOCKLIST.contains(&name) {
        return None;
    }
    Some(name)
}

/// Append every call-site name found in one code line.
pub(crate) fn callees_in_line(code: &str, out: &mut Vec<String>) {
    for i in 0..code.len() {
        if let Some(name) = callee_before(code, i) {
            out.push(name.to_string());
        }
    }
}

//! QS0001 — lock-order discipline.
//!
//! DESIGN.md §14 declares one global acquisition order for every lock in
//! the serve tier (ascending by rank below); deadlock freedom rests on
//! every nested acquisition following it. This rule walks each file's
//! token stream with a brace/scope tracker, models which lock guards are
//! *live* at every point, and flags any `.lock()`/`.read()`/`.write()`
//! acquired under a live guard out of order — or on a lock class the
//! table does not declare at all (undeclared nesting is an error: a new
//! lock must be ranked before it may nest).
//!
//! Guard-liveness model (lexical, deliberately simple):
//! - `let g = <recv>.lock();` holds the guard until `g` leaves scope —
//!   trailing poison-recovery adapters (`.unwrap()`, `.expect(..)`,
//!   `.unwrap_or_else(..)`) do not end it, any other trailing call does
//!   (the guard was a temporary, e.g. `.lock().take()`);
//! - `let _ = <recv>.lock();` drops immediately (not held);
//! - `let gs: Vec<_> = iter.map(|s| s.epoch.write()).collect();` holds
//!   every collected guard (the `.collect()` heuristic);
//! - `drop(g)` ends the binding's guards early;
//! - every block `{ .. }` is a scope: guards die at its `}`.
//!
//! Acquisitions that produce temporaries (`*self.map.write() = m;`) are
//! still *checked* against the live set at the acquisition point — a
//! temporary taken out of order deadlocks just the same.

use crate::source::lexer::{Lexed, TokKind, Token};
use crate::source::scope::{ident, is_punct, matching_close, receiver_class};
use crate::source::SourceFile;
use crate::{Diagnostic, Location, RuleId, Severity};

/// The declared ascending acquisition order: `(class, rank,
/// same_rank_ok)`. `same_rank_ok` marks classes where holding several
/// guards of the *same* class is legal because acquisition is by
/// ascending shard index (the coordinated-swap protocol).
const RANKS: &[(&str, u32, bool)] = &[
    // Test serialization locks: always outermost.
    ("TEST_LOCK", 0, false),
    ("SERIAL", 0, false),
    // The failpoint registry mutex nests directly under a test lock.
    ("REGISTRY", 5, false),
    // Coordinated-swap serialization: taken before any epoch or map lock.
    ("reload_lock", 10, false),
    // Per-shard epochs, acquired by ascending shard index.
    ("epoch", 20, true),
    // The fleet's prefix→shard map.
    ("map", 30, false),
    // Steady-state cache: slot table, then one slot's cell.
    ("slots", 40, false),
    ("slot", 45, false),
    // Session table interior.
    ("inner", 50, false),
    // Streaming heartbeat mailbox: leaf, never holds anything else.
    ("stream_report", 60, false),
];

fn rank_of(class: &str) -> Option<(u32, bool)> {
    RANKS
        .iter()
        .find(|(c, _, _)| *c == class)
        .map(|&(_, r, ok)| (r, ok))
}

/// Trailing adapters that keep the guard: poison recovery only.
const POISON_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Guard-producing methods: zero-argument `.lock()/.read()/.write()`.
const ACQUIRERS: &[&str] = &["lock", "read", "write"];

#[derive(Debug, Clone)]
struct Guard {
    class: String,
    rank: Option<(u32, bool)>,
    binding: String,
    line: u32,
}

#[derive(Debug)]
struct PendingAcq {
    class: Option<String>,
    line: u32,
    /// Paren/bracket depth relative to the statement start.
    depth: u32,
    /// Token index of the acquirer method name.
    tok: usize,
}

pub fn check(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    let mut scopes: Vec<Vec<Guard>> = vec![Vec::new()];

    // Per-statement state.
    let mut stmt_start = 0usize;
    let mut depth = 0u32;
    let mut pending: Vec<PendingAcq> = Vec::new();
    let mut has_collect = false;

    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => {
                end_stmt(
                    file,
                    toks,
                    stmt_start,
                    i,
                    &mut pending,
                    has_collect,
                    &mut scopes,
                );
                has_collect = false;
                depth = 0;
                scopes.push(Vec::new());
                stmt_start = i + 1;
            }
            TokKind::Punct('}') => {
                end_stmt(
                    file,
                    toks,
                    stmt_start,
                    i,
                    &mut pending,
                    has_collect,
                    &mut scopes,
                );
                has_collect = false;
                depth = 0;
                scopes.pop();
                if scopes.is_empty() {
                    scopes.push(Vec::new()); // unbalanced input: stay total
                }
                stmt_start = i + 1;
            }
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth = depth.saturating_sub(1),
            TokKind::Punct(';') | TokKind::Punct(',') if depth == 0 => {
                end_stmt(
                    file,
                    toks,
                    stmt_start,
                    i,
                    &mut pending,
                    has_collect,
                    &mut scopes,
                );
                has_collect = false;
                stmt_start = i + 1;
            }
            TokKind::Ident(name) => {
                if name == "collect" {
                    has_collect = true;
                }
                // `drop(g)` ends g's guards early.
                if name == "drop" && is_punct(toks, i + 1, '(') && is_punct(toks, i + 3, ')') {
                    if let Some(binding) = ident(toks, i + 2) {
                        for scope in scopes.iter_mut() {
                            scope.retain(|g| g.binding != binding);
                        }
                    }
                }
                if ACQUIRERS.contains(&name.as_str())
                    && i > 0
                    && is_punct(toks, i - 1, '.')
                    && is_punct(toks, i + 1, '(')
                    && is_punct(toks, i + 2, ')')
                {
                    let class = receiver_class(toks, i);
                    check_order(file, &toks[i], class.as_deref(), &scopes, out);
                    pending.push(PendingAcq {
                        class,
                        line: toks[i].line,
                        depth,
                        tok: i,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    end_stmt(
        file,
        toks,
        stmt_start,
        toks.len(),
        &mut pending,
        has_collect,
        &mut scopes,
    );
}

/// Flags `class` against every live guard at the acquisition point.
fn check_order(
    file: &SourceFile,
    at: &Token,
    class: Option<&str>,
    scopes: &[Vec<Guard>],
    out: &mut Vec<Diagnostic>,
) {
    let new_rank = class.and_then(rank_of);
    for held in scopes.iter().flatten() {
        let msg = match (held.rank, new_rank) {
            (Some((held_r, _)), Some((new_r, new_ok))) => {
                let same_class = class == Some(held.class.as_str());
                if new_r > held_r || (new_r == held_r && same_class && new_ok) {
                    continue;
                }
                format!(
                    "lock `{}` (rank {}) acquired while `{}` (rank {}, held since line {}) is live — \
                     the declared order is ascending",
                    class.unwrap_or("?"),
                    new_r,
                    held.class,
                    held_r,
                    held.line
                )
            }
            _ => {
                let undeclared = if new_rank.is_none() {
                    class.unwrap_or("<anonymous>")
                } else {
                    held.class.as_str()
                };
                format!(
                    "lock `{}` nests with `{}` but `{}` has no declared rank — \
                     add it to the acquisition-order table before nesting it",
                    class.unwrap_or("<anonymous>"),
                    held.class,
                    undeclared
                )
            }
        };
        out.push(Diagnostic {
            rule: RuleId::LockOrder,
            severity: Severity::Error,
            message: msg,
            location: Location::Span {
                file: file.path.clone(),
                line: at.line,
                col: at.col,
            },
        });
    }
}

/// Statement boundary: decide which pending acquisitions became held
/// guards and install them in the current scope.
fn end_stmt(
    file: &SourceFile,
    toks: &[Token],
    start: usize,
    end: usize,
    pending: &mut Vec<PendingAcq>,
    has_collect: bool,
    scopes: &mut [Vec<Guard>],
) {
    let _ = file;
    if pending.is_empty() {
        return;
    }
    let acqs = std::mem::take(pending);
    // `let [mut] <binding> = ...` — anything else produces temporaries.
    let mut j = start;
    if ident(toks, j) != Some("let") {
        return;
    }
    j += 1;
    if ident(toks, j) == Some("mut") {
        j += 1;
    }
    let binding = match ident(toks, j) {
        Some(b) => b.to_string(),
        None => return, // destructuring pattern: not a guard binding
    };
    if binding == "_" || binding == "Some" || binding == "Ok" || binding == "Err" {
        // `let _ = ..` drops immediately; let-else patterns extract the
        // payload, not the guard.
        return;
    }
    for acq in acqs {
        let held = if acq.depth == 0 {
            only_poison_chain(toks, acq.tok + 2, end)
        } else {
            has_collect
        };
        if !held {
            continue;
        }
        let class = match acq.class {
            Some(c) => c,
            None => continue,
        };
        let rank = rank_of(&class);
        if let Some(scope) = scopes.last_mut() {
            scope.push(Guard {
                class,
                rank,
                binding: binding.clone(),
                line: acq.line,
            });
        }
    }
}

/// True when everything after the acquirer's `()` (token index `close`)
/// up to the statement end is a chain of poison-recovery adapters — the
/// guard survives into the binding. Any other trailing call or field
/// access means the bound value is not the guard.
fn only_poison_chain(toks: &[Token], close: usize, end: usize) -> bool {
    let mut j = close + 1;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct(';') => return true,
            TokKind::Punct('.') => {
                let Some(name) = ident(toks, j + 1) else {
                    return false;
                };
                if !POISON_ADAPTERS.contains(&name) {
                    return false;
                }
                if !is_punct(toks, j + 2, '(') {
                    return false;
                }
                match matching_close(toks, j + 2) {
                    Some(c) => j = c + 1,
                    None => return false,
                }
            }
            // `else` (let-else) or anything else trailing: treat as end.
            TokKind::Ident(k) if k == "else" => return true,
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lexer::lex;
    use crate::source::{FileKind, SourceFile};

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile {
            path: "t.rs".into(),
            kind: FileKind::Library,
            text: src.into(),
        };
        let mut out = Vec::new();
        check(&f, &lex(src), &mut out);
        out
    }

    #[test]
    fn ascending_nesting_is_clean() {
        let d = run("fn f(&self) {\n\
                 let _serialized = self.reload_lock.lock();\n\
                 let guards: Vec<_> = self.shards.iter().map(|s| s.epoch.write()).collect();\n\
                 *self.map.write() = m;\n\
                 drop(guards);\n\
             }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn descending_nesting_fires() {
        let d = run("fn f(&self) {\n\
                 let _m = self.map.write();\n\
                 let _r = self.reload_lock.lock();\n\
             }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("rank 10"));
        assert!(
            matches!(d[0].location, Location::Span { line: 3, .. }),
            "{d:?}"
        );
    }

    #[test]
    fn undeclared_nesting_fires() {
        let d = run("fn f(&self) {\n\
                 let _r = self.reload_lock.lock();\n\
                 let _x = self.mystery.lock();\n\
             }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("mystery"));
    }

    #[test]
    fn inner_blocks_release_guards() {
        let d = run("fn f(&self) {\n\
                 { let _e = self.epoch.read(); }\n\
                 let _r = self.reload_lock.lock();\n\
             }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn temporaries_are_checked_but_not_held() {
        // The `.read()` temporary on line 2 dies at end of statement, so
        // line 3's lower-ranked lock is legal...
        let clean = run("fn f(&self) {\n\
                 let m = Arc::clone(&self.map.read());\n\
                 let _r = self.reload_lock.lock();\n\
             }");
        assert!(clean.is_empty(), "{clean:?}");
        // ...but a temporary acquired *under* a live guard is checked.
        let bad = run("fn f(&self) {\n\
                 let _s = self.slots.write();\n\
                 *self.map.write() = m;\n\
             }");
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn same_rank_ok_only_for_marked_classes() {
        let ok = run("fn f(&self) { let g: Vec<_> = s.iter().map(|s| s.epoch.write()).collect(); let h = x.epoch.write(); }");
        assert!(ok.is_empty(), "{ok:?}");
        let bad = run("fn f(&self) { let a = self.map.write(); let b = other.map.write(); }");
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn drop_ends_liveness() {
        let d = run("fn f(&self) {\n\
                 let g = self.map.write();\n\
                 drop(g);\n\
                 let _r = self.reload_lock.lock();\n\
             }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn poison_recovery_keeps_the_guard_but_take_does_not() {
        let held = run("fn f() {\n\
                 let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());\n\
                 let _x = self.mystery.lock();\n\
             }");
        assert_eq!(held.len(), 1, "TEST_LOCK must stay live: {held:?}");
        let temp = run("fn f() {\n\
                 let v = self.map.write().take();\n\
                 let _r = self.reload_lock.lock();\n\
             }");
        assert!(temp.is_empty(), "`.take()` ends the guard: {temp:?}");
    }
}

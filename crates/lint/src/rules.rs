//! The source-invariant rules.
//!
//! Each rule encodes one invariant the workspace states informally and
//! has already paid for violating at least once (see `DESIGN.md` §9 for
//! the rule ↔ incident table). Rules operate on the comment-free code
//! token view of a [`SourceFile`]; inline `// lint: <key> <reason>`
//! annotations and the checked-in baseline are the only escape hatches,
//! and both require a reason.

use crate::source::{FileKind, SourceFile};
use crate::Finding;

/// Rule identifiers, as used in findings, baselines, and `allow` keys.
pub const RULE_IDS: &[&str] = &[
    "std-sync",
    "wall-clock",
    "hot-unwrap",
    "float-finite",
    "no-println",
    "unbounded-push",
    "adapt-cast",
    "lock-order",
];

/// Files allowed to read the wall clock. Everything else must work in
/// virtual time (`SimTime`) or receive timings from these sites.
pub const CLOCK_SITES: &[&str] = &[
    "crates/exec/src/lib.rs",
    "crates/exec/src/recall.rs",
    // The chaos runner stamps scenario outcomes with wall-clock duration
    // for its reports; fault injection itself is deterministic.
    "crates/chaos/src/runner.rs",
    // The SPSC ring's `pop_wait` park deadline is a real-thread timeout:
    // a parked consumer can only be freed by wall-clock expiry, and the
    // ring serves the threaded substrate exclusively (the simulator has
    // no rings — buffers travel through the virtual-time event queue).
    "crates/common/src/sync/ring.rs",
    // The socket substrate runs over real kernel sockets: reconnect
    // budgets, recall barriers, and handshake deadlines are wall-clock
    // timeouts by nature.
    "crates/exec/src/socket.rs",
];

/// The one file allowed to name `std::sync::{Mutex, RwLock, Condvar}`:
/// the poison-recovering wrapper everything else must go through.
pub const SYNC_SITE: &str = "crates/common/src/sync.rs";

/// Struct-name fragments that mark a type as a monitoring window, log,
/// or history whose growth must be visibly bounded.
const BOUNDED_NAME_PATTERNS: &[&str] = &[
    "Window", "Log", "Timeline", "History", "Journal", "Buffer", "Recorder", "Trace", "Ring",
    "Dedup",
];

/// Idents that count as visible eviction evidence inside an impl block.
const EVICTION_IDENTS: &[&str] = &[
    "pop_front",
    "pop_back",
    "pop",
    "truncate",
    "drain",
    "retain",
    "remove",
    "evict",
    "prune",
    "split_off",
];

/// Shared per-file rule context: collects findings and applies inline
/// suppressions uniformly.
pub struct RuleCx<'a> {
    file: &'a SourceFile,
    /// Findings that survived inline suppression.
    pub out: Vec<Finding>,
    /// Findings silenced by an inline annotation with a reason.
    pub suppressed_inline: u64,
}

impl<'a> RuleCx<'a> {
    /// Creates a context for one file.
    pub fn new(file: &'a SourceFile) -> Self {
        RuleCx {
            file,
            out: Vec::new(),
            suppressed_inline: 0,
        }
    }

    /// Emits a finding unless an inline suppression with a non-empty
    /// reason covers it. A matching annotation with an *empty* reason
    /// does not suppress; it converts the finding into a demand for the
    /// missing reason instead.
    fn emit(&mut self, rule: &'static str, extra_key: Option<&str>, line: u32, message: String) {
        let mut reasonless = false;
        let keys: Vec<(&str, Option<&str>)> = match extra_key {
            Some(k) => vec![("allow", Some(rule)), (k, None)],
            None => vec![("allow", Some(rule))],
        };
        for (key, arg) in keys {
            if let Some(s) = self.file.suppression_at(line, key, arg) {
                let reason = match arg {
                    Some(prefix) => s.reason[prefix.len()..].trim(),
                    None => s.reason.trim(),
                };
                if reason.is_empty() {
                    reasonless = true;
                } else {
                    self.suppressed_inline += 1;
                    return;
                }
            }
        }
        let message = if reasonless {
            format!("{message} (the `// lint:` suppression on this line needs a reason)")
        } else {
            message
        };
        self.out.push(Finding {
            rule: rule.to_string(),
            path: self.file.path.clone(),
            line,
            message,
        });
    }

    fn live(&self, line: u32) -> bool {
        !self.file.in_test_region(line)
    }
}

/// Runs every source rule over one file.
pub fn run_all(file: &SourceFile) -> RuleCx<'_> {
    let mut cx = RuleCx::new(file);
    std_sync(&mut cx);
    wall_clock(&mut cx);
    hot_unwrap(&mut cx);
    float_finite(&mut cx);
    no_println(&mut cx);
    unbounded_push(&mut cx);
    adapt_cast(&mut cx);
    cx
}

/// `std-sync`: `std::sync::{Mutex, RwLock, Condvar}` are forbidden
/// outside `crates/common/src/sync.rs`. A raw std mutex propagates
/// poison; PR 1 replaced every such lock with the poison-recovering
/// `gridq_common::sync::Mutex` so one panicking worker cannot cascade
/// into a whole-query abort.
fn std_sync(cx: &mut RuleCx<'_>) {
    let file = cx.file;
    if file.path == SYNC_SITE || !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    const BAD: &[&str] = &["Mutex", "RwLock", "Condvar"];
    let mut ci = 0usize;
    while ci + 5 < file.code_len() {
        let is_std_sync = file.ct(ci).is_ident("std")
            && file.ct(ci + 1).is_punct(':')
            && file.ct(ci + 2).is_punct(':')
            && file.ct(ci + 3).is_ident("sync")
            && file.ct(ci + 4).is_punct(':')
            && file.ct(ci + 5).is_punct(':');
        if !is_std_sync {
            ci += 1;
            continue;
        }
        let after = ci + 6;
        if after >= file.code_len() {
            break;
        }
        let t = file.ct(after);
        if t.is_punct('{') {
            let close = file.matching_close(after);
            for j in after + 1..close {
                let u = file.ct(j);
                if BAD.iter().any(|b| u.is_ident(b)) && cx.live(u.line) {
                    let line = u.line;
                    let name = u.text.clone();
                    cx.emit(
                        "std-sync",
                        None,
                        line,
                        format!(
                            "`std::sync::{name}` outside {SYNC_SITE}: use the \
                             poison-recovering `gridq_common::sync` wrapper"
                        ),
                    );
                }
            }
            ci = close + 1;
        } else {
            if BAD.iter().any(|b| t.is_ident(b)) && cx.live(t.line) {
                let line = t.line;
                let name = t.text.clone();
                cx.emit(
                    "std-sync",
                    None,
                    line,
                    format!(
                        "`std::sync::{name}` outside {SYNC_SITE}: use the \
                         poison-recovering `gridq_common::sync` wrapper"
                    ),
                );
            }
            ci = after + 1;
        }
    }
}

/// `wall-clock`: `Instant::now` / `SystemTime` are forbidden outside the
/// designated clock sites. The simulator's determinism (and every
/// replayable property test seeded through `GRIDQ_CHECK_SEED`) depends
/// on virtual time being the only clock in the query path.
fn wall_clock(cx: &mut RuleCx<'_>) {
    let file = cx.file;
    if file.kind != FileKind::Lib || CLOCK_SITES.contains(&file.path.as_str()) {
        return;
    }
    for ci in 0..file.code_len() {
        let t = file.ct(ci);
        if !cx.live(t.line) {
            continue;
        }
        if t.is_ident("Instant")
            && ci + 3 < file.code_len()
            && file.ct(ci + 1).is_punct(':')
            && file.ct(ci + 2).is_punct(':')
            && file.ct(ci + 3).is_ident("now")
        {
            let line = t.line;
            cx.emit(
                "wall-clock",
                None,
                line,
                "`Instant::now` outside the allowlisted clock sites: derive timings \
                 from `SimTime` or take them as inputs"
                    .to_string(),
            );
        }
        if t.is_ident("SystemTime") {
            let line = t.line;
            cx.emit(
                "wall-clock",
                None,
                line,
                "`SystemTime` outside the allowlisted clock sites: wall-clock reads \
                 make runs unreproducible"
                    .to_string(),
            );
        }
    }
}

/// `hot-unwrap`: `.unwrap()` / `.expect(` are forbidden in `crates/exec`
/// and `crates/adapt` non-test code. These crates run on worker threads
/// where a panic poisons shared channels and barriers (the PR 1 / PR 2
/// incident class); failures must flow through typed `GridError` paths
/// or carry a `// lint: infallible <reason>` proof.
fn hot_unwrap(cx: &mut RuleCx<'_>) {
    let file = cx.file;
    let scoped =
        file.path.starts_with("crates/exec/src/") || file.path.starts_with("crates/adapt/src/");
    if !scoped || file.kind != FileKind::Lib {
        return;
    }
    for ci in 1..file.code_len() {
        let t = file.ct(ci);
        if !(t.is_ident("unwrap") || t.is_ident("expect")) {
            continue;
        }
        if !file.ct(ci - 1).is_punct('.') {
            continue;
        }
        if ci + 1 >= file.code_len() || !file.ct(ci + 1).is_punct('(') {
            continue;
        }
        if !cx.live(t.line) {
            continue;
        }
        let line = t.line;
        let what = t.text.clone();
        cx.emit(
            "hot-unwrap",
            Some("infallible"),
            line,
            format!(
                "`.{what}(` on a hot path: convert to a typed `GridError` or annotate \
                 `// lint: infallible <why it cannot fail>`"
            ),
        );
    }
}

/// `float-finite`: in the monitoring paths (`crates/adapt`, the stats
/// windows), a `f64` parameter may not
/// flow into an accumulator (`+=`, `push`, `push_back`, `insert`)
/// unless the function visibly guards with `is_finite` / `is_nan`, and
/// float literals may not be compared with `==` / `!=`. One NaN sample
/// silenced the PR 2 detector for an entire window.
fn float_finite(cx: &mut RuleCx<'_>) {
    let file = cx.file;
    let scoped =
        file.path.starts_with("crates/adapt/src/") || file.path == "crates/common/src/stats.rs";
    if !scoped || file.kind != FileKind::Lib {
        return;
    }
    // Part 1: unguarded float sinks, per function.
    let spans: Vec<_> = file.fns.to_vec();
    for span in &spans {
        let Some((body_start, body_end)) = span.body else {
            continue;
        };
        if body_start >= file.code_len() {
            continue;
        }
        if !cx.live(file.ct(body_start).line) {
            continue;
        }
        // f64 parameters: `name: f64` (optionally `mut name: f64`).
        let mut params: Vec<String> = Vec::new();
        for ci in span.params.0..span.params.1.min(file.code_len()) {
            if file.ct(ci).is_punct(':')
                && ci + 1 < file.code_len()
                && file.ct(ci + 1).is_ident("f64")
                && ci >= 1
                && file.ct(ci - 1).kind == crate::lexer::TokKind::Ident
            {
                params.push(file.ct(ci - 1).text.clone());
            }
        }
        if params.is_empty() {
            continue;
        }
        let guarded = (body_start..body_end)
            .any(|ci| file.ct(ci).is_ident("is_finite") || file.ct(ci).is_ident("is_nan"));
        if guarded {
            continue;
        }
        for ci in body_start..body_end {
            let t = file.ct(ci);
            // `<sink>(param ...)`
            let is_sink_call =
                (t.is_ident("push") || t.is_ident("push_back") || t.is_ident("insert"))
                    && ci + 2 < file.code_len()
                    && file.ct(ci + 1).is_punct('(');
            if is_sink_call {
                let arg = file.ct(ci + 2);
                if let Some(p) = params.iter().find(|p| arg.is_ident(p)) {
                    let (line, sink, p) = (t.line, t.text.clone(), p.clone());
                    cx.emit(
                        "float-finite",
                        None,
                        line,
                        format!(
                            "float parameter `{p}` flows into `{sink}` in fn `{}` with no \
                             visible `is_finite` guard: a NaN poisons the window",
                            span.name
                        ),
                    );
                }
            }
            // `<acc> += param`
            if t.is_punct('+') && ci + 2 < file.code_len() && file.ct(ci + 1).is_punct('=') {
                let rhs = file.ct(ci + 2);
                if let Some(p) = params.iter().find(|p| rhs.is_ident(p)) {
                    let (line, p) = (t.line, p.clone());
                    cx.emit(
                        "float-finite",
                        None,
                        line,
                        format!(
                            "float parameter `{p}` accumulated with `+=` in fn `{}` with no \
                             visible `is_finite` guard: a NaN poisons the running sum",
                            span.name
                        ),
                    );
                }
            }
        }
    }
    // Part 2: float literal equality comparisons.
    for ci in 1..file.code_len().saturating_sub(2) {
        let eq = (file.ct(ci).is_punct('=') && file.ct(ci + 1).is_punct('='))
            || (file.ct(ci).is_punct('!') && file.ct(ci + 1).is_punct('='));
        if !eq {
            continue;
        }
        // Exclude `<=`, `>=`, `==` continuation (`a === b` is not Rust).
        if file.ct(ci - 1).is_punct('<')
            || file.ct(ci - 1).is_punct('>')
            || file.ct(ci - 1).is_punct('=')
            || file.ct(ci - 1).is_punct('!')
        {
            continue;
        }
        let lhs = file.ct(ci - 1);
        let rhs = file.ct(ci + 2);
        if (is_float_operand(lhs) || is_float_operand(rhs)) && cx.live(file.ct(ci).line) {
            let line = file.ct(ci).line;
            cx.emit(
                "float-finite",
                None,
                line,
                "direct float equality comparison in a monitoring path: compare with a \
                 tolerance or restructure"
                    .to_string(),
            );
        }
    }
}

/// True when a type name contains a bounded-name pattern at a CamelCase
/// word boundary: `EventLog` and `LogEntry` match `Log`, but `Logical`
/// does not (the pattern continues into a lowercase letter).
fn is_bounded_name(name: &str) -> bool {
    BOUNDED_NAME_PATTERNS.iter().any(|p| {
        name.match_indices(p).any(|(i, _)| {
            let after = name[i + p.len()..].chars().next();
            !matches!(after, Some(c) if c.is_ascii_lowercase())
        })
    })
}

fn is_float_operand(t: &crate::lexer::Token) -> bool {
    match t.kind {
        crate::lexer::TokKind::Literal => {
            let s = &t.text;
            s.starts_with(|c: char| c.is_ascii_digit())
                && (s.contains('.') || s.ends_with("f64") || s.ends_with("f32"))
        }
        crate::lexer::TokKind::Ident => t.text == "f64" || t.text == "f32",
        _ => false,
    }
}

/// `no-println`: library crates may not print. Diagnostics go through
/// `gridq-obs` (metrics + timeline) so they are structured, bounded, and
/// capturable; stray prints in worker threads interleave garbage into
/// bench output and hide real signal.
fn no_println(cx: &mut RuleCx<'_>) {
    let file = cx.file;
    if file.kind != FileKind::Lib {
        return;
    }
    const PRINTS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];
    for ci in 0..file.code_len().saturating_sub(1) {
        let t = file.ct(ci);
        if PRINTS.iter().any(|p| t.is_ident(p)) && file.ct(ci + 1).is_punct('!') && cx.live(t.line)
        {
            let (line, mac) = (t.line, t.text.clone());
            cx.emit(
                "no-println",
                None,
                line,
                format!("`{mac}!` in library code: report through `gridq-obs` instead"),
            );
        }
    }
}

/// `unbounded-push`: inside impls of window/log/history-named types,
/// `.push(` / `.push_back(` / `.insert(` must be accompanied by visible
/// eviction (`pop_front`, `truncate`, `drain`, ...) somewhere in the
/// impl, or an explicit `// lint: bounded-by <reason>` annotation.
/// Monitoring state that grows per-event without bound is the PR 2
/// "tracked streams outlive the query" hazard; the consumer dedup sets
/// that grew one key per delivered tuple (fixed alongside this rule's
/// `Dedup`/`insert` extension) are the same hazard on the data plane.
fn unbounded_push(cx: &mut RuleCx<'_>) {
    let file = cx.file;
    if file.kind != FileKind::Lib {
        return;
    }
    let impls: Vec<_> = file.impls.to_vec();
    for imp in &impls {
        if !is_bounded_name(&imp.type_name) {
            continue;
        }
        let (start, end) = imp.body;
        let end = end.min(file.code_len());
        let has_eviction = (start..end).any(|ci| {
            let t = file.ct(ci);
            EVICTION_IDENTS.iter().any(|e| t.is_ident(e))
        });
        if has_eviction {
            continue;
        }
        for ci in start..end {
            let t = file.ct(ci);
            let is_push = (t.is_ident("push") || t.is_ident("push_back") || t.is_ident("insert"))
                && ci >= 1
                && file.ct(ci - 1).is_punct('.')
                && ci + 1 < file.code_len()
                && file.ct(ci + 1).is_punct('(');
            if is_push && cx.live(t.line) {
                let (line, name) = (t.line, imp.type_name.clone());
                cx.emit(
                    "unbounded-push",
                    Some("bounded-by"),
                    line,
                    format!(
                        "`{name}` grows without visible eviction: bound the growth or \
                         annotate `// lint: bounded-by <reason>`"
                    ),
                );
            }
        }
    }
}

/// `adapt-cast`: `as` casts between int and float are forbidden in
/// `crates/adapt` non-test code. Tuple counts and weights must go
/// through the checked `gridq_common::cast` helpers so precision loss
/// is a documented decision, not an accident.
fn adapt_cast(cx: &mut RuleCx<'_>) {
    let file = cx.file;
    if !file.path.starts_with("crates/adapt/src/") || file.kind != FileKind::Lib {
        return;
    }
    const INT_TARGETS: &[&str] = &[
        "usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8",
    ];
    for ci in 0..file.code_len().saturating_sub(1) {
        let t = file.ct(ci);
        if !t.is_ident("as") || !cx.live(t.line) {
            continue;
        }
        let target = file.ct(ci + 1);
        if target.is_ident("f64") || target.is_ident("f32") {
            let (line, ty) = (t.line, target.text.clone());
            cx.emit(
                "adapt-cast",
                None,
                line,
                format!(
                    "`as {ty}` in crates/adapt: use `gridq_common::cast` so count→float \
                     precision is checked"
                ),
            );
        } else if ci >= 1
            && is_float_operand(file.ct(ci - 1))
            && INT_TARGETS.iter().any(|ty| target.is_ident(ty))
        {
            let (line, ty) = (t.line, target.text.clone());
            cx.emit(
                "adapt-cast",
                None,
                line,
                format!("float `as {ty}` truncation in crates/adapt: use a checked conversion"),
            );
        }
    }
}

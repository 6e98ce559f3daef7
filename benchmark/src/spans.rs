//! In-memory spans around calls into each layer.
//!
//! The traced pass brackets every call into a layer's public functions
//! with a span — name, start, end, and the span that caused it — all
//! under one run id. Spans stay in memory until the run ends and are
//! then written as JSON lines. A span's *self time* is its duration
//! minus the part of it that its children cover, so a block's span is
//! left with exactly the replay loop's own overhead.
//!
//! Timestamps are plain nanosecond counts handed in by the caller: the
//! clock is read in the binary, never here.

use std::collections::BTreeMap;

use gridq_obs::json::JsonObj;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its store.
    pub id: u32,
    /// The span that caused this one, `None` for the run's root.
    pub parent: Option<u32>,
    /// Layer-call name; the same name the per-layer metric carries.
    pub name: &'static str,
    /// Start, nanoseconds since the run's clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's clock origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds (zero for a span closed before it opened).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// All spans of one run.
#[derive(Debug, Clone)]
pub struct SpanStore {
    run: String,
    spans: Vec<Span>,
}

impl SpanStore {
    /// An empty store for the run identified by `run`.
    pub fn new(run: impl Into<String>) -> Self {
        SpanStore {
            run: run.into(),
            spans: Vec::new(),
        }
    }

    /// The run id every span is written under.
    pub fn run(&self) -> &str {
        &self.run
    }

    /// The spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span at `now_ns`; close it with [`SpanStore::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, now_ns: u64) -> u32 {
        self.record(name, parent, now_ns, now_ns)
    }

    /// Closes span `id` at `now_ns`.
    pub fn close(&mut self, id: u32, now_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now_ns;
        }
    }

    /// Records an already-finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Self time of every span, indexed like [`SpanStore::spans`]: the
    /// span's duration minus the union of its children's intervals
    /// clipped to it (children that overlap each other, as concurrent
    /// ones may, are not subtracted twice).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            let Some(parent) = span.parent.and_then(|p| self.spans.get(p as usize)) else {
                continue;
            };
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[parent.id as usize].push((start, end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for &(start, end) in kids.iter() {
                    let from = start.max(reach);
                    if end > from {
                        covered += end - from;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Call count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// One JSON object per span: run, id, parent, name, start, end, self.
    pub fn to_json_lines(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let mut obj = JsonObj::new();
            obj.str("run", &self.run).int("id", u64::from(span.id));
            match span.parent {
                Some(p) => obj.int("parent", u64::from(p)),
                None => obj.raw("parent", "null"),
            };
            obj.str("name", span.name)
                .int("start_ns", span.start_ns)
                .int("end_ns", span.end_ns)
                .int("self_ns", self_ns);
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }
}

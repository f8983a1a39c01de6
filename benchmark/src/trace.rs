//! Benchmark-side spans.
//!
//! A span is recorded at each layer boundary, around the call into the
//! layer: name, start, end, the span that caused it, and the query it
//! belongs to. Spans stay in memory and are written out once, when the
//! run ends. Spans inside the program are a later change.
//!
//! Spans opened through [`Tracer::open`] nest by call order. Spans
//! recorded from inside a layer by [`Tracer::record`] (the key-value
//! decorator, possibly on a fetch thread the program spawned) carry no
//! parent: the traced replay runs one query at a time, so
//! [`Tracer::adopt_orphans`] gives each the innermost span of its query
//! that contains it in time.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Index of the query (or ingest step) this span belongs to.
    pub query: usize,
    pub name: String,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: BTreeMap<String, u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<usize>,
    query: usize,
    recording: bool,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

fn thread_id() -> u64 {
    // `ThreadId` has no stable integer form; its debug form is `ThreadId(n)`.
    let text = format!("{:?}", std::thread::current().id());
    text.trim_matches(|c: char| !c.is_ascii_digit())
        .parse()
        .unwrap_or(0)
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                query: 0,
                recording: false,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a span holder panicked")
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to query `query`.
    pub fn set_query(&self, query: usize) {
        self.state().query = query;
    }

    /// Open a span under the innermost open one and return its id.
    pub fn open(&self, name: &str) -> usize {
        let now = self.now_ns();
        let mut st = self.state();
        let id = st.spans.len();
        let span = Span {
            id,
            parent: st.open.last().copied(),
            query: st.query,
            name: name.to_owned(),
            thread: thread_id(),
            start_ns: now,
            end_ns: now,
            counts: BTreeMap::new(),
        };
        st.spans.push(span);
        st.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its duration
    /// in milliseconds.
    pub fn close(&self, id: usize, counts: &[(&str, u64)]) -> f64 {
        let now = self.now_ns();
        let mut st = self.state();
        assert_eq!(st.open.pop(), Some(id), "spans close innermost first");
        let span = &mut st.spans[id];
        span.end_ns = now;
        for (k, v) in counts {
            span.counts.insert((*k).to_owned(), *v);
        }
        span.duration_ns() as f64 / 1e6
    }

    /// Whether [`Self::record`] keeps what it is given. Off until the
    /// replay starts, so a build running over the decorator records
    /// nothing.
    pub fn set_recording(&self, on: bool) {
        self.state().recording = on;
    }

    /// Record a finished, parentless span (see [`Self::adopt_orphans`]).
    pub fn record(&self, name: &str, start_ns: u64, end_ns: u64, counts: &[(&str, u64)]) {
        let thread = thread_id();
        let mut st = self.state();
        if !st.recording {
            return;
        }
        let id = st.spans.len();
        let query = st.query;
        st.spans.push(Span {
            id,
            parent: None,
            query,
            name: name.to_owned(),
            thread,
            start_ns,
            end_ns,
            counts: counts.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        });
    }

    /// Parent every recorded span of query `query` under the shortest
    /// opened span of that query containing it in time.
    pub fn adopt_orphans(&self, query: usize) {
        let mut st = self.state();
        let of_query: Vec<usize> = (0..st.spans.len())
            .filter(|&i| st.spans[i].query == query)
            .collect();
        for &i in &of_query {
            if st.spans[i].parent.is_some() || !st.spans[i].name.starts_with("kvstore.") {
                continue;
            }
            let (start, end) = (st.spans[i].start_ns, st.spans[i].end_ns);
            let parent = of_query
                .iter()
                .copied()
                .filter(|&j| {
                    let s = &st.spans[j];
                    j != i
                        && !s.name.starts_with("kvstore.")
                        && s.start_ns <= start
                        && end <= s.end_ns
                })
                .min_by_key(|&j| st.spans[j].duration_ns());
            st.spans[i].parent = parent;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Self time of span `id`: its duration minus the part of that interval
/// its children cover. Children may overlap each other (parallel
/// fetches), so their intervals are merged before subtracting.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (s, e) in kids {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    me.duration_ns() - covered
}

/// Total self time, in nanoseconds, of every span called `name`.
pub fn total_self_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_ns(spans, s.id))
        .sum()
}

/// Total duration, in nanoseconds, of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}{}\n",
            s.id,
            s.query,
            s.name,
            s.thread,
            s.start_ns,
            s.end_ns,
            counts.join(","),
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 0,
            name: name.to_owned(),
            thread: 1,
            start_ns,
            end_ns,
            counts: BTreeMap::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        let spans = vec![
            span(0, None, "core.plan", 0, 100),
            // Two overlapping fetches on different threads: 10..50 ∪ 30..70.
            span(1, Some(0), "kvstore.scan", 10, 50),
            span(2, Some(0), "kvstore.scan", 30, 70),
            // Nested inside the first: adds nothing to the union.
            span(3, Some(0), "kvstore.get", 20, 25),
            // A grandchild is its parent's business, not the root's.
            span(4, Some(1), "inner", 0, 100),
            span(5, Some(0), "kvstore.get", 90, 95),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 60 - 5);
        assert_eq!(self_ns(&spans, 2), 40);
        assert_eq!(total_self_ns(&spans, "core.plan"), 35);
        assert_eq!(total_ns(&spans, "kvstore.scan"), 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span(0, None, "p", 10, 20),
            span(1, Some(0), "c", 5, 12),
            span(2, Some(0), "c", 18, 30),
        ];
        assert_eq!(self_ns(&spans, 0), 10 - 2 - 2);
    }

    #[test]
    fn opened_spans_nest_and_orphans_find_the_innermost_container() {
        let t = Tracer::new();
        t.record("kvstore.put", 0, 1, &[]);
        assert!(
            t.spans().is_empty(),
            "nothing is recorded before the replay"
        );
        t.set_recording(true);
        t.set_query(3);
        let q = t.open("query");
        let p = t.open("core.plan");
        let a = t.now_ns();
        let b = t.now_ns();
        t.record("kvstore.get", a, b, &[("keys", 1)]);
        t.close(p, &[("gfus", 7)]);
        t.close(q, &[]);
        t.adopt_orphans(3);
        let spans = t.spans();
        assert_eq!(spans[p].parent, Some(q));
        assert_eq!(spans[2].name, "kvstore.get");
        assert_eq!(spans[2].parent, Some(p));
        assert_eq!(spans[2].query, 3);
        assert_eq!(spans[p].counts["gfus"], 7);
        assert!(to_json(&spans).contains("\"name\":\"kvstore.get\""));
    }
}

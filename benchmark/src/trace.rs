//! In-memory spans recorded around calls into each layer's public
//! functions, and the self-time attribution computed from them.
//!
//! Spans are recorded **from this package**: the program under test is not
//! instrumented. Where a stage runs *inside* a public call and cannot be
//! bracketed from outside (the Steiner plan and the reduced-tree build
//! inside `OnlineEngine::reduce`), the traced run replays that stage on
//! its own right after the request and records the replay as a child of
//! the enclosing span. A span's self time is therefore defined through
//! the parent links, not through interval containment: its duration minus
//! the summed durations of its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.stage`, e.g. `core.reduce`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request_id: u64,
}

/// Per-name aggregate over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// An append-only span log.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request_id: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Records a span around `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, request_id);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Records a span whose interval was measured elsewhere (another
    /// thread's `Instant`s), relative to this tracer's origin.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request_id: u64,
    ) -> SpanId {
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: rel(start),
            end_ns: rel(end),
            parent,
            request_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Duration of a closed span.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(c);
        }
        out
    }

    /// Self time of `name` in microseconds per `per` units (0 when absent).
    pub fn self_us_per(
        &self,
        times: &BTreeMap<&'static str, SelfTime>,
        name: &str,
        per: usize,
    ) -> f64 {
        times
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / per.max(1) as f64)
    }

    /// Writes the trace as JSON: `{"spans": [{name, start_ns, end_ns,
    /// parent, request_id}, ...], "self_times": {name: {count, total_ns,
    /// self_ns}}}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                f,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request_id\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, parent, s.request_id
            )?;
        }
        writeln!(f, "], \"self_times\": {{")?;
        let times = self.self_times();
        for (i, (name, t)) in times.iter().enumerate() {
            let comma = if i + 1 < times.len() { "," } else { "" };
            writeln!(
                f,
                "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        writeln!(f, "}}}}")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_by_parent_link() {
        let mut t = Tracer::new();
        let origin = t.origin;
        let at = |ns: u64| origin + std::time::Duration::from_nanos(ns);
        let req = t.record("request", at(0), at(100), None, 7);
        let reduce = t.record("core.reduce", at(0), at(60), Some(req), 7);
        // replayed children sit outside the parent's interval on purpose
        t.record("junction.plan", at(100), at(110), Some(reduce), 7);
        t.record("junction.reduced_build", at(110), at(140), Some(reduce), 7);
        t.record("pgm.kernels", at(60), at(100), Some(req), 7);
        let st = t.self_times();
        assert_eq!(st["request"].self_ns, 0);
        assert_eq!(st["core.reduce"].total_ns, 60);
        assert_eq!(st["core.reduce"].self_ns, 20);
        assert_eq!(st["junction.plan"].self_ns, 10);
        assert_eq!(st["junction.reduced_build"].self_ns, 30);
        assert_eq!(st["pgm.kernels"].self_ns, 40);
        // the stages' self times add up to the request
        let sum: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, t.duration_ns(req));
        assert!(t.spans().iter().all(|s| s.request_id == 7));
    }
}

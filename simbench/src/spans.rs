//! Wall-clock spans recorded by the benchmark around the calls it makes
//! into the simulator's layers. Nothing inside the program is
//! instrumented: a span covers one public call (or one set-up step, one
//! operation, one ladder replay) as seen from outside.
//!
//! Spans are kept in memory and written out once, at the end of a traced
//! run. With recording off, [`Spans::time`] only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.run`.
    pub name: &'static str,
    /// What the call worked on, e.g. `q6.smart-pax`; empty for none.
    pub label: String,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation (0: none).
    pub op: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// `name` with the label appended after a dot, when there is one.
    pub fn key(&self) -> String {
        if self.label.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.name, self.label)
        }
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    /// A recorder that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation: spans opened from now on share a fresh id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`/`label`. The label is built
    /// only when recording, so an untraced run pays for one branch.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        label: impl FnOnce() -> String,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            label: label(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans named `name` recorded from span index
    /// `from` on, grouped by label.
    pub fn durations(&self, name: &str, from: usize) -> BTreeMap<String, Vec<u64>> {
        let mut out: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for s in self.spans[from..].iter().filter(|s| s.name == name) {
            out.entry(s.label.clone()).or_default().push(s.dur_ns());
        }
        out
    }

    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover (children of one span never overlap,
    /// since the benchmark is single-threaded).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// The spans as JSON: one object per span, then per-key totals of
    /// calls, wall and self time.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times();
        let mut totals: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        let mut s = String::from("{\"spans\": [\n");
        for (i, (sp, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}  {{\"id\": {i}, \"name\": \"{}\", \"label\": \"{}\", \"op\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.label,
                sp.op,
                sp.start_ns,
                sp.end_ns,
            );
            let t = totals.entry(sp.key()).or_default();
            t.0 += 1;
            t.1 += sp.dur_ns();
            t.2 += self_ns;
        }
        s.push_str("\n], \"totals\": {\n");
        for (i, (key, (calls, wall, own))) in totals.iter().enumerate() {
            let _ = write!(
                s,
                "{}  \"{key}\": {{\"calls\": {calls}, \"wall_ns\": {wall}, \"self_ns\": {own}}}",
                if i == 0 { "" } else { ",\n" },
            );
        }
        s.push_str("\n}}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        sp.next_op();
        sp.time("outer", String::new, |sp| {
            sp.time("inner", || "a".into(), |_| std::hint::black_box(1 + 1));
        });
        let spans = sp.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        let selfs = sp.self_times();
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns());
        assert!(sp.to_json().contains("\"inner.a\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut sp = Spans::new(false);
        let v = sp.time("x", || unreachable!("label built while off"), |_| 7);
        assert_eq!(v, 7);
        assert!(sp.spans().is_empty());
    }
}

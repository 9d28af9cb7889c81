//! In-memory spans for the traced run.
//!
//! Every call the benchmark makes into a layer's public function is
//! wrapped in a span (name, start, end, parent span, request id). Stage
//! timers the system reports itself (`AnswerStats`, `DetectStats`)
//! become synthetic child spans of the call that produced them. Each
//! client thread records into its own [`Trace`]; the traces are merged
//! into a [`Spans`] set when the run ends and written out once.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder.
pub struct Trace {
    origin: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

/// An open span: pass it to [`Trace::end`].
#[must_use]
pub struct Open(usize);

impl Trace {
    pub fn new(origin: Instant, thread: u64) -> Trace {
        Trace {
            origin,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = (self.thread << 40) | self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Open a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, req: u64) -> Open {
        let now = Instant::now();
        Open(self.push(name, parent, req, now, now))
    }

    /// Close a span now; returns its id.
    pub fn end(&mut self, open: Open) -> u64 {
        let now = Instant::now().saturating_duration_since(self.origin);
        let s = &mut self.spans[open.0];
        s.end = now;
        s.id
    }

    /// Id of an open span (to parent children on it before it closes).
    pub fn id(&self, open: &Open) -> u64 {
        self.spans[open.0].id
    }

    /// Run `f` inside a span; returns its result and the span's length.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, parent, req);
        let out = f();
        let i = open.0;
        self.end(open);
        (out, self.spans[i].dur())
    }

    /// Record a span whose interval is known (a stage timer the system
    /// reported): it starts at `start` and lasts `dur`. Returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let i = self.push(name, parent, req, start, start + dur);
        self.spans[i].id
    }

    /// Take over another thread's spans.
    pub fn absorb(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The merged spans of a run.
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
    children: HashMap<u64, Vec<usize>>,
}

impl Spans {
    pub fn new(mut spans: Vec<Span>) -> Spans {
        spans.sort_by_key(|s| (s.start, s.id));
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Spans { spans, children }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Durations (ms) of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| crate::stats::ms(s.dur()))
            .collect()
    }

    /// A span's self time: its length minus the part of its interval
    /// that its children cover.
    pub fn self_time(&self, i: usize) -> Duration {
        let s = &self.spans[i];
        let mut covered: Vec<(Duration, Duration)> = self
            .children
            .get(&s.id)
            .map(|c| {
                c.iter()
                    .map(|&j| {
                        (
                            self.spans[j].start.max(s.start),
                            self.spans[j].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        covered.sort();
        let mut busy = Duration::ZERO;
        let mut cur: Option<(Duration, Duration)> = None;
        for (a, b) in covered {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    busy += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            busy += cb - ca;
        }
        s.dur().saturating_sub(busy)
    }

    /// Self times (ms) of every span with this name.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| crate::stats::ms(self.self_time(i)))
            .collect()
    }

    /// Write every span as one tab-separated line (times in µs).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_us\tend_us\tself_us")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent.map_or_else(|| "-".to_string(), |p| p.to_string()),
                s.req,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                self.self_time(i).as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut tr = Trace::new(origin, 1);
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let parent = tr.record("call", None, 7, at(0), Duration::from_millis(10));
        tr.record("a", Some(parent), 7, at(1), Duration::from_millis(3));
        tr.record("b", Some(parent), 7, at(3), Duration::from_millis(3));
        let spans = Spans::new(tr.into_spans());
        assert_eq!(spans.self_ms("call"), vec![5.0]);
        assert_eq!(spans.self_ms("a"), vec![3.0]);
    }
}

//! In-memory span recording around the calls into each layer, and the
//! self-time arithmetic over the finished trace.
//!
//! A span is (id, parent, name, start, end). Spans are pushed to a
//! vector while the workload runs and written out once it has ended.
//! With tracing off, [`Tracer::span`] only runs its closure.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are seconds since the tracer was made.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span `name` under `parent` (0 = root). `f`
    /// receives the new span's id, which is 0 when tracing is off.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        // Relaxed: the id is only a unique label.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("span vector poisoned by a panicking workload thread")
            .push(Span {
                id,
                parent,
                name,
                start,
                end,
            });
        out
    }

    /// Everything recorded so far, ordered by start time.
    pub fn finish(&self) -> Trace {
        let mut spans = self
            .spans
            .lock()
            .expect("span vector poisoned by a panicking workload thread")
            .clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        Trace::new(spans)
    }
}

/// A finished trace with parent links resolved.
pub struct Trace {
    spans: Vec<Span>,
    index: HashMap<u64, usize>,
}

impl Trace {
    fn new(spans: Vec<Span>) -> Trace {
        let index = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        Trace { spans, index }
    }

    /// Spans named `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: u64) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }

    /// Spans named `name` anywhere below span `id`.
    pub fn below<'a>(&'a self, id: u64, name: &'a str) -> Vec<&'a Span> {
        self.named(name)
            .filter(|s| {
                let mut up = s.parent;
                while up != 0 {
                    if up == id {
                        return true;
                    }
                    up = self.index.get(&up).map_or(0, |&i| self.spans[i].parent);
                }
                false
            })
            .collect()
    }

    /// The span's duration minus the part its children cover.
    pub fn self_time(&self, span: &Span) -> f64 {
        span.secs() - covered(&self.children(span.id))
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}}}",
                s.id, s.parent, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of the spans' intervals (overlapping
/// spans from concurrent threads count once).
pub fn covered(spans: &[&Span]) -> f64 {
    let mut intervals: Vec<(f64, f64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace::new(vec![
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 1, 3.0, 5.0),
            span(4, 2, 1.5, 2.0),
        ]);
        let root = trace.spans[0].clone();
        assert!((trace.self_time(&root) - 6.0).abs() < 1e-12);
        assert_eq!(trace.below(1, "x").len(), 3);
    }
}

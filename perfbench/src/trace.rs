//! In-memory spans for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. Each span has a name, start, end, parent and request
//! id. They stay in memory until the run ends, are written out as TSV,
//! and are reduced to self time per layer: a span's duration minus the
//! part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: u32,
    request: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

/// Calls and summed self time of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Spans recorded under this name.
    pub calls: u64,
    /// Summed self time.
    pub self_time: Duration,
}

impl LayerTime {
    /// Mean self time per call, in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_time.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// Starts a new request: spans opened from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.open(name);
        let out = f();
        self.close(index);
        out
    }

    /// Opens a span that [`Tracer::close`] ends, for regions that need
    /// `&mut Tracer` inside (nested spans).
    pub fn open(&mut self, name: &'static str) -> u32 {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request: self.request,
        });
        self.open.push(index);
        index
    }

    /// Ends the span `index` returned by [`Tracer::open`].
    pub fn close(&mut self, index: u32) {
        debug_assert_eq!(
            self.open.last(),
            Some(&index),
            "spans close innermost first"
        );
        self.open.pop();
        self.spans[index as usize].end = self.origin.elapsed();
    }

    /// The current request id.
    pub fn request(&self) -> u64 {
        self.request
    }

    /// Self time per span name, over requests numbered `from` or later
    /// (earlier ones are warm-up).
    pub fn self_times(&self, from: u64) -> BTreeMap<&'static str, LayerTime> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_time[s.parent as usize] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            if s.request < from {
                continue;
            }
            let layer = out.entry(s.name).or_default();
            layer.calls += 1;
            layer.self_time += s.end.saturating_sub(s.start).saturating_sub(children);
        }
        out
    }

    /// Writes every span as `request name start_ns end_ns parent` TSV.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tspan\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{i}\t{}\t{}\t{}\t{parent}",
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.next_request();
        let root = t.open("root");
        t.span("child", || std::thread::sleep(Duration::from_millis(20)));
        t.close(root);
        let times = t.self_times(0);
        assert_eq!(times["root"].calls, 1);
        assert!(times["child"].self_time >= Duration::from_millis(20));
        assert!(times["root"].self_time < Duration::from_millis(20));
    }
}

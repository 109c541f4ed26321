//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions. Each span has a name, a lane (the
//! cluster rank, or the serve client), an id (round or request), its
//! parent on the same lane, and start/end times. Nothing is written out
//! until the run ends.
//!
//! Self time. The cluster's event backend runs exactly one rank at a
//! time, and the serve client is one thread, so the wall clock is
//! covered by one running lane at every instant. [`Trace::attribute`]
//! walks the event log in recording order and gives the interval before
//! each event to the innermost open span of the lane that emitted the
//! event (that lane was the one running). An interval on a lane with no
//! open span is a gap: code between the timed calls. Spans plus gaps
//! tile the traced window exactly, so the parts add up to the whole by
//! construction and the gaps are the reported residual.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub lane: usize,
    pub id: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy)]
struct Event {
    t_ns: u64,
    span: u32,
    start: bool,
}

struct Log {
    spans: Vec<Span>,
    events: Vec<Event>,
    stacks: Vec<Vec<u32>>,
}

/// The recorder. `Tracer::off()` makes every `span` a plain call.
pub struct Tracer {
    epoch: Instant,
    log: Option<Mutex<Log>>,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            epoch: Instant::now(),
            log: None,
        }
    }

    /// A recorder for `lanes` lanes with room for `capacity` spans before
    /// it touches the allocator.
    pub fn on(lanes: usize, capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            log: Some(Mutex::new(Log {
                spans: Vec::with_capacity(capacity),
                events: Vec::with_capacity(2 * capacity),
                stacks: vec![Vec::with_capacity(8); lanes],
            })),
        }
    }

    pub fn enabled(&self) -> bool {
        self.log.is_some()
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` on `lane`.
    pub fn span<R>(&self, lane: usize, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let Some(log) = &self.log else {
            return f();
        };
        let idx = {
            let mut g = log.lock().expect("trace log poisoned");
            let t_ns = self.now_ns();
            let idx = g.spans.len() as u32;
            let parent = g.stacks[lane].last().copied();
            g.spans.push(Span {
                name,
                lane,
                id,
                parent,
                start_ns: t_ns,
                end_ns: t_ns,
            });
            g.events.push(Event {
                t_ns,
                span: idx,
                start: true,
            });
            g.stacks[lane].push(idx);
            idx
        };
        let r = f();
        let mut g = log.lock().expect("trace log poisoned");
        let t_ns = self.now_ns();
        g.spans[idx as usize].end_ns = t_ns;
        g.events.push(Event {
            t_ns,
            span: idx,
            start: false,
        });
        g.stacks[lane].pop();
        r
    }

    /// Stops recording and hands over the log (empty when off).
    pub fn finish(self) -> Trace {
        match self.log {
            Some(m) => {
                let log = m.into_inner().expect("trace log poisoned");
                Trace {
                    spans: log.spans,
                    events: log.events,
                }
            }
            None => Trace {
                spans: Vec::new(),
                events: Vec::new(),
            },
        }
    }
}

pub struct Trace {
    pub spans: Vec<Span>,
    events: Vec<Event>,
}

/// Self time per span, and gap time per id (see the module docs).
pub struct Attribution {
    pub self_ns: Vec<u64>,
    pub gap_ns: BTreeMap<u64, u64>,
    /// First to last event: the window the self times and gaps tile.
    pub window_ns: u64,
}

impl Trace {
    pub fn attribute(&self) -> Attribution {
        let lanes = self.spans.iter().map(|s| s.lane + 1).max().unwrap_or(0);
        let mut stacks: Vec<Vec<u32>> = vec![Vec::new(); lanes];
        let mut self_ns = vec![0u64; self.spans.len()];
        let mut gap_ns = BTreeMap::new();
        let mut prev = self.events.first().map_or(0, |e| e.t_ns);
        let first = prev;
        for e in &self.events {
            let span = self.spans[e.span as usize];
            let dt = e.t_ns - prev;
            match stacks[span.lane].last() {
                Some(&top) => self_ns[top as usize] += dt,
                None => *gap_ns.entry(span.id).or_insert(0) += dt,
            }
            if e.start {
                stacks[span.lane].push(e.span);
            } else {
                stacks[span.lane].pop();
            }
            prev = e.t_ns;
        }
        Attribution {
            self_ns,
            gap_ns,
            window_ns: prev - first,
        }
    }

    /// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, lane as thread id.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"span\":{},\"parent\":{}}}}}{}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                i,
                parent,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_gaps_tile_the_window() {
        let t = Tracer::on(2, 16);
        t.span(0, "outer", 1, || {
            t.span(0, "inner", 1, || std::hint::black_box(3 + 4));
        });
        t.span(1, "other", 2, || ());
        let trace = t.finish();
        let a = trace.attribute();
        let total: u64 = a.self_ns.iter().sum::<u64>() + a.gap_ns.values().sum::<u64>();
        assert_eq!(total, a.window_ns);
        assert_eq!(trace.spans[1].parent, Some(0));
    }
}

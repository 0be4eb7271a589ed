//! Spans recorded by the driver around each call it makes into a layer.
//!
//! One [`Tracer`] per generator thread, pre-sized so recording never
//! allocates inside a timed region; spans are written out as JSON lines
//! when the run ends. Spans *inside* the program are a later change —
//! these are taken from the benchmark's side of each public call.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
    /// The operation (vote, batch, query) the span belongs to: spans of
    /// one request share it.
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cap: usize,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// `epoch` is shared by all threads of a run so their spans line up.
    pub fn new(epoch: Instant, cap: usize, on: bool) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::with_capacity(if on { cap } else { 0 }),
            open: Vec::with_capacity(8),
            cap,
            dropped: 0,
        }
    }

    /// A tracer that records nothing (untraced runs).
    pub fn off() -> Self {
        Tracer::new(Instant::now(), 0, false)
    }

    /// Pauses or resumes recording (traced runs alternate traced and
    /// untraced bursts to measure what tracing costs).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggle between spans, not inside one");
        self.on = on && self.cap > 0;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        self.open.push(id);
        id
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        // Spans close innermost-first; tolerate an out-of-order close
        // by dropping everything opened after `id`.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other (two
/// threads' work attributed to one parent) or stick out of the parent;
/// covered time is the union of the children clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Writes `{thread, name, start_ns, end_ns, parent, op}` per line.
pub fn write_jsonl(path: &std::path::Path, threads: &[(&str, &[Span])]) -> std::io::Result<u64> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0;
    for (thread, spans) in threads {
        for s in spans.iter() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"thread\":\"{thread}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
            n += 1;
        }
    }
    w.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ a 10..40 ⊃ b 20..30 ; root ⊃ c 50..60
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 20, 30, 1),
            span("c", 50, 60, 0),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        // children 10..50 and 30..70 overlap by 20; 90..130 sticks out.
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("x", 10, 50, 0),
            span("y", 30, 70, 0),
            span("z", 90, 130, 0),
        ];
        // covered = (10..70) + (90..100) = 70
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_by_open_order_and_stops_when_full() {
        let mut t = Tracer::new(Instant::now(), 3, true);
        let a = t.begin("a", 7);
        let b = t.begin("b", 7);
        t.end(b);
        let c = t.begin("c", 7);
        t.end(c);
        let d = t.begin("d", 7); // buffer full
        t.end(d);
        t.end(a);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert_eq!(t.dropped, 1);
        assert!(s[0].end_ns >= s[2].end_ns);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let a = t.begin("a", 1);
        t.end(a);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let b = t.begin("b", 2);
        t.end(b);
        assert!(t.spans().is_empty(), "no buffer to record into");
    }
}

//! In-memory spans recorded around calls into the layers, with self-time
//! accounting. A span's layer is its name up to the first `.`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `engine.scan`; operation roots are `op.<kind>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started (0 while open).
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Index of the stream operation the span belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans into a preallocated vector.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op: 0,
        }
    }

    /// Later spans belong to operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            op: self.op,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (the innermost open one).
    pub fn end(&mut self, idx: u32) {
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.spans[idx as usize].end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Summed self time per span name, over spans inside operation roots
    /// (`op.*`) only; the roots' own self time is reported as `op.*`.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let self_ns = self.self_times();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.under_op(i) {
                *out.entry(s.name).or_insert(0) += self_ns[i];
            }
        }
        out
    }

    /// Whether span `i` is an operation root or nested in one.
    fn under_op(&self, mut i: usize) -> bool {
        loop {
            let s = &self.spans[i];
            if s.parent == ROOT {
                return s.layer() == "op";
            }
            i = s.parent as usize;
        }
    }

    /// Write the spans as CSV (`op,name,parent,start_ns,end_ns`).
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "op,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(out, "{},{},{},{},{}", s.op, s.name, parent, s.start, s.end)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::with_capacity(4);
        let root = t.begin("op.query");
        t.time("engine.scan", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        t.time("engine.ns_scan", || ());
        let by_name = t.self_by_name();
        assert!(by_name["engine.scan"] >= 2_000_000);
        assert!(by_name["op.query"] < by_name["engine.scan"]);
        assert!(
            !by_name.contains_key("engine.ns_scan"),
            "outside any operation"
        );
        let total: u64 = by_name.values().sum();
        assert_eq!(total, t.spans()[0].ns());
    }
}

//! Spans the benchmark records around its own calls into each layer.
//! They live in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
struct Span {
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Units of work the span covered (accesses, layouts, requests).
    count: u64,
}

/// A span recorder for the benchmark's main thread. Disabled, it only
/// runs the closures it is handed.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` that covered `count` units of
    /// work. Spans opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            count,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Total duration of every span named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Total units of work of every span named `name`.
    pub fn total_count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    }

    /// A span's self time: its duration minus the time its children
    /// cover. Children of one span never overlap (they run on the same
    /// thread, one after the other), so their durations add up.
    fn self_ns(&self, id: usize) -> u64 {
        let own = self.spans[id].end_ns - self.spans[id].start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        own.saturating_sub(children)
    }

    /// Writes every span as one TSV row; does nothing when disabled.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut text = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\tcount\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                s.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_counts_add_up() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            spin(2);
            t.span("inner", 5, |_| spin(3));
            t.span("inner", 7, |_| spin(3));
        });
        assert_eq!(t.total_count("inner"), 12);
        let outer = t.total_ns("outer");
        let inner = t.total_ns("inner");
        assert!(inner >= 6_000_000 && outer >= inner + 2_000_000);
        assert_eq!(t.self_ns(0), outer - inner);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_writes_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, |_| 41 + 1), 42);
        assert_eq!(t.total_ns("x"), 0);
        let path = std::env::temp_dir().join(format!("mosaic-bench-none-{}", std::process::id()));
        t.write_tsv(&path).unwrap();
        assert!(!path.exists());
    }
}

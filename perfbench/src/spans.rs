//! In-memory span recorder for the traced run.
//!
//! A span is one call across a layer boundary, timed from the
//! benchmark's own code: a name, start and end (nanoseconds since the
//! run's epoch), the span that caused it, and the request or instance id
//! it belongs to. Spans stay in memory while the run measures and are
//! written out as one tab-separated file when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span store owned by one thread. Stores of different threads share
/// an epoch and draw ids from disjoint ranges, so they merge without
/// renumbering.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A store whose ids start above `id_base << 40`.
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Spans {
            epoch,
            next_id: (id_base << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the shared epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        key: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns,
        });
        id
    }

    /// Sets the end of the already recorded span `id` (a span opened
    /// before its children and closed after them).
    pub fn finish(&mut self, id: u64, end_ns: u64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end_ns;
        }
    }

    /// Summed duration (µs) of every span whose name starts with `prefix`.
    pub fn total_us(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.duration_ns() as f64 / 1_000.0)
            .sum()
    }

    /// Moves every span of `other` into this store.
    pub fn absorb(&mut self, other: &Spans) {
        self.spans.extend_from_slice(&other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time (µs) of every span named `name`: its duration minus the
    /// part its child spans cover. Children of one span never overlap
    /// (each store is single-threaded), so their durations add.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.duration_ns();
            }
        }
        self.named(name)
            .map(|s| {
                let own = s
                    .duration_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
                own as f64 / 1_000.0
            })
            .collect()
    }

    /// Writes every span, one per line: id, parent, name, key, start and
    /// end in nanoseconds since the run's epoch.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tkey\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

//! Gantt-style activity traces.
//!
//! Every kernel activation in the scheduler is recorded as a [`Span`] on
//! a named lane. Traces drive the ASCII Gantt rendering the quickstart
//! example uses to show how the hybrid schedule reuses its kernels.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::Cycles;

/// One activity interval `[start, end)` on a named lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Lane (hardware unit / kernel) the activity ran on.
    pub lane: String,
    /// Human-readable activity label (e.g. `"fc1"`, `"mha.head3"`).
    pub label: String,
    /// First busy cycle.
    pub start: Cycles,
    /// One past the last busy cycle.
    pub end: Cycles,
}

impl Span {
    /// Creates a span.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(
        lane: impl Into<String>,
        label: impl Into<String>,
        start: Cycles,
        end: Cycles,
    ) -> Self {
        assert!(end >= start, "span ends before it starts");
        Span {
            lane: lane.into(),
            label: label.into(),
            start,
            end,
        }
    }

    /// Duration of the span.
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }

    /// Whether two spans overlap in time (lane-agnostic).
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// An append-only collection of [`Span`]s.
///
/// # Example
///
/// ```
/// use looplynx_sim::trace::{Span, Trace};
/// use looplynx_sim::time::Cycles;
///
/// let mut t = Trace::new();
/// t.push(Span::new("mp", "qkv", Cycles::new(0), Cycles::new(100)));
/// t.push(Span::new("mha", "attn", Cycles::new(100), Cycles::new(150)));
/// assert_eq!(t.end().as_u64(), 150);
/// assert_eq!(t.spans()[0].duration().as_u64(), 100);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { spans: Vec::new() }
    }

    /// Appends a span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// All recorded spans in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace has no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Latest end time over all spans (`Cycles::ZERO` when empty).
    pub fn end(&self) -> Cycles {
        self.spans
            .iter()
            .map(|s| s.end)
            .fold(Cycles::ZERO, Cycles::max)
    }

    /// Earliest start time over all spans (`Cycles::ZERO` when empty).
    pub fn start(&self) -> Cycles {
        self.spans
            .iter()
            .map(|s| s.start)
            .min()
            .unwrap_or(Cycles::ZERO)
    }

    /// Renders an ASCII Gantt chart with the given width in characters.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn render_gantt(&self, width: usize) -> String {
        assert!(width > 0, "gantt width must be positive");
        let end = self.end().as_u64().max(1);
        let mut lanes: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            lanes.entry(s.lane.as_str()).or_default().push(s);
        }
        let name_w = lanes.keys().map(|k| k.len()).max().unwrap_or(4).max(4);
        let mut out = String::new();
        for (lane, spans) in &lanes {
            let mut row = vec![b'.'; width];
            for s in spans {
                let a = (s.start.as_u64() * width as u64 / end) as usize;
                let b = ((s.end.as_u64() * width as u64).div_ceil(end) as usize).min(width);
                for cell in &mut row[a.min(width.saturating_sub(1))..b] {
                    *cell = b'#';
                }
            }
            out.push_str(&format!(
                "{lane:<name_w$} |{}|\n",
                String::from_utf8(row).expect("ascii row")
            ));
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace with {} spans ending at {}",
            self.len(),
            self.end()
        )
    }
}

impl FromIterator<Span> for Trace {
    fn from_iter<I: IntoIterator<Item = Span>>(iter: I) -> Self {
        Trace {
            spans: iter.into_iter().collect(),
        }
    }
}

impl Extend<Span> for Trace {
    fn extend<I: IntoIterator<Item = Span>>(&mut self, iter: I) {
        self.spans.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: &str, label: &str, a: u64, b: u64) -> Span {
        Span::new(lane, label, Cycles::new(a), Cycles::new(b))
    }

    #[test]
    fn span_duration_and_overlap() {
        let a = span("x", "a", 0, 10);
        let b = span("x", "b", 5, 15);
        let c = span("x", "c", 10, 20);
        assert_eq!(a.duration().as_u64(), 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching spans do not overlap");
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn span_rejects_reversed() {
        let _ = span("x", "a", 10, 5);
    }

    #[test]
    fn trace_aggregation() {
        let t: Trace = vec![
            span("mp", "qkv", 0, 100),
            span("mp", "fc1", 150, 250),
            span("mha", "attn.h0", 100, 130),
            span("mha", "attn.h1", 130, 150),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t.start().as_u64(), 0);
        assert_eq!(t.end().as_u64(), 250);
    }

    #[test]
    fn gantt_renders_every_lane() {
        let mut t = Trace::new();
        t.push(span("mp", "a", 0, 50));
        t.push(span("mha", "b", 50, 100));
        let g = t.render_gantt(20);
        assert!(g.contains("mp"));
        assert!(g.contains("mha"));
        assert!(g.contains('#'));
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.end(), Cycles::ZERO);
        assert_eq!(t.start(), Cycles::ZERO);
    }
}

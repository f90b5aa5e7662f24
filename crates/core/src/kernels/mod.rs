//! Macro dataflow kernels (MDK).
//!
//! "Kernels in classical spatial architectures with the same functionality
//! are grouped and implemented as macro dataflow kernels … we then employ a
//! scheduler to flexibly organize and reuse these kernels in a temporal
//! manner, achieving much higher peak hardware resource usage during each
//! activation" (paper Section III-B).
//!
//! Each kernel exposes a *timing* method returning a [`KernelTiming`],
//! computed with the cycle-accurate pipeline calculator of
//! [`looplynx_sim::pipeline`]. The numbers they compute with run in
//! [`crate::engine::DistributedGpt2`], on the `looplynx-tensor` kernels.

pub mod lnres;
pub mod mha;
pub mod mp;

use looplynx_sim::time::Cycles;

/// Timing result of one kernel activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTiming {
    /// Total cycles the activation occupies the kernel (exposed time).
    pub total: Cycles,
    /// Named sub-intervals for breakdown reporting; they need not sum to
    /// `total` (overlapped portions are reported once).
    pub segments: Vec<Segment>,
}

/// A named sub-interval of a kernel activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// What the interval was spent on (e.g. `"dma"`, `"softmax"`).
    pub label: String,
    /// Duration.
    pub cycles: Cycles,
}

impl Segment {
    /// Creates a segment.
    pub fn new(label: impl Into<String>, cycles: Cycles) -> Self {
        Segment {
            label: label.into(),
            cycles,
        }
    }
}

impl KernelTiming {
    /// Creates a timing with segments.
    pub fn new(total: Cycles, segments: Vec<Segment>) -> Self {
        KernelTiming { total, segments }
    }

    /// Cycles attributed to the segment with the given label (0 if absent).
    pub fn segment(&self, label: &str) -> Cycles {
        self.segments
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.cycles)
            .sum()
    }
}

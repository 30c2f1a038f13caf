//! Experiment datasets: `(R, H, M, C)` samples tagged by layout kind.

use vmcore::PmuCounters;

/// What kind of Mosalloc layout produced a sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// The all-4KB anchor run.
    All4K,
    /// The all-2MB anchor run.
    All2M,
    /// The all-1GB run (held out for the §VII-D case study).
    All1G,
    /// Any mixed-page Mosalloc layout.
    Mixed,
}

/// One measured execution: the model inputs and the observed runtime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Runtime cycles (`R`).
    pub r: f64,
    /// L2-TLB hits (`H`).
    pub h: f64,
    /// L2-TLB misses (`M`).
    pub m: f64,
    /// Walk cycles (`C`).
    pub c: f64,
    /// Which layout produced the sample.
    pub kind: LayoutKind,
}

impl Sample {
    /// Builds a sample from simulated PMU counters.
    pub fn from_counters(counters: &PmuCounters, kind: LayoutKind) -> Self {
        let (r, h, m, c) = counters.rhmc();
        Sample { r, h, m, c, kind }
    }
}

/// An ordered collection of samples for one (workload, platform) pair.
///
/// # Example
///
/// ```
/// use mosmodel::dataset::{Dataset, LayoutKind, Sample};
///
/// let mut ds = Dataset::new();
/// ds.push(Sample { r: 100.0, h: 0.0, m: 10.0, c: 50.0, kind: LayoutKind::All4K });
/// ds.push(Sample { r: 60.0, h: 0.0, m: 1.0, c: 5.0, kind: LayoutKind::All2M });
/// assert_eq!(ds.anchor_4k().unwrap().m, 10.0);
/// assert_eq!(ds.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dataset {
    samples: Vec<Sample>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset {
            samples: Vec::new(),
        }
    }

    /// Builds a dataset from an iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = Sample>>(samples: I) -> Self {
        Dataset {
            samples: samples.into_iter().collect(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// The samples, in insertion order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// The all-4KB anchor, if present.
    pub fn anchor_4k(&self) -> Option<&Sample> {
        self.samples.iter().find(|s| s.kind == LayoutKind::All4K)
    }

    /// The all-2MB anchor, if present.
    pub fn anchor_2m(&self) -> Option<&Sample> {
        self.samples.iter().find(|s| s.kind == LayoutKind::All2M)
    }

    /// The all-1GB measurement, if present (excluded from fitting; used by
    /// the §VII-D validation case study).
    pub fn sample_1g(&self) -> Option<&Sample> {
        self.samples.iter().find(|s| s.kind == LayoutKind::All1G)
    }

    /// The dataset without its all-1GB sample — the training set of the
    /// §VII-D case study.
    pub fn without_1g(&self) -> Dataset {
        Dataset {
            samples: self
                .samples
                .iter()
                .copied()
                .filter(|s| s.kind != LayoutKind::All1G)
                .collect(),
        }
    }

    /// A sub-dataset containing the samples at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            samples: indices.iter().map(|&i| self.samples[i]).collect(),
        }
    }

    /// TLB sensitivity as the paper defines it (§VI-A): the relative
    /// runtime improvement of the best (1GB if present, else 2MB) layout
    /// over the 4KB layout. `None` when anchors are missing.
    pub fn tlb_sensitivity(&self) -> Option<f64> {
        let r4k = self.anchor_4k()?.r;
        let best = self.sample_1g().or_else(|| self.anchor_2m())?.r;
        Some((r4k - best) / r4k)
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Sample;
    type IntoIter = std::slice::Iter<'a, Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

impl FromIterator<Sample> for Dataset {
    fn from_iter<I: IntoIterator<Item = Sample>>(iter: I) -> Self {
        Dataset::from_samples(iter)
    }
}

impl Extend<Sample> for Dataset {
    fn extend<I: IntoIterator<Item = Sample>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(r: f64, kind: LayoutKind) -> Sample {
        Sample {
            r,
            h: 1.0,
            m: 2.0,
            c: 3.0,
            kind,
        }
    }

    #[test]
    fn anchors_found_by_kind() {
        let ds = Dataset::from_samples([
            sample(100.0, LayoutKind::Mixed),
            sample(90.0, LayoutKind::All4K),
            sample(70.0, LayoutKind::All2M),
            sample(65.0, LayoutKind::All1G),
        ]);
        assert_eq!(ds.anchor_4k().unwrap().r, 90.0);
        assert_eq!(ds.anchor_2m().unwrap().r, 70.0);
        assert_eq!(ds.sample_1g().unwrap().r, 65.0);
    }

    #[test]
    fn without_1g_drops_only_1g() {
        let ds = Dataset::from_samples([
            sample(90.0, LayoutKind::All4K),
            sample(65.0, LayoutKind::All1G),
            sample(80.0, LayoutKind::Mixed),
        ]);
        let train = ds.without_1g();
        assert_eq!(train.len(), 2);
        assert!(train.sample_1g().is_none());
        assert!(train.anchor_4k().is_some());
    }

    #[test]
    fn tlb_sensitivity_prefers_1g() {
        let ds = Dataset::from_samples([
            sample(100.0, LayoutKind::All4K),
            sample(80.0, LayoutKind::All2M),
            sample(60.0, LayoutKind::All1G),
        ]);
        assert!((ds.tlb_sensitivity().unwrap() - 0.4).abs() < 1e-12);
        let no_1g = ds.without_1g();
        assert!((no_1g.tlb_sensitivity().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(Dataset::new().tlb_sensitivity(), None);
    }

    #[test]
    fn subset_and_collect() {
        let ds: Dataset = (0..5)
            .map(|i| sample(i as f64, LayoutKind::Mixed))
            .collect();
        let sub = ds.subset(&[0, 2, 4]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.samples()[1].r, 2.0);
    }

    #[test]
    fn from_counters_maps_fields() {
        let counters = PmuCounters {
            runtime_cycles: 10,
            stlb_hits: 20,
            stlb_misses: 30,
            walk_cycles: 40,
            ..PmuCounters::default()
        };
        let s = Sample::from_counters(&counters, LayoutKind::Mixed);
        assert_eq!((s.r, s.h, s.m, s.c), (10.0, 20.0, 30.0, 40.0));
    }
}

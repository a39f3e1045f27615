//! Instruction-usage counters.
//!
//! Section 4.1 of the paper: "we instrument the toolchain to catch the
//! number of times each type of instruction is executed during each
//! testcase via Pin. This method helps us narrow down the scope of
//! suspected instructions." These counters are the simulator's equivalent,
//! and also drive the usage-stress triggering condition of Observation 10.
//! A core's cycles and energy depend only on its per-class counts and are
//! derived from them here.

use crate::inst::InstClass;
use serde::{Deserialize, Serialize};

/// Per-core, per-class execution counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UsageCounters {
    counts: Vec<[u64; InstClass::ALL.len()]>,
}

impl UsageCounters {
    /// Counters for `cores` cores, all zero.
    pub fn new(cores: usize) -> Self {
        UsageCounters {
            counts: vec![[0; InstClass::ALL.len()]; cores],
        }
    }

    /// Records one execution of `class` on `core`.
    #[inline]
    pub fn record(&mut self, core: usize, class: InstClass) {
        self.counts[core][class as usize] += 1;
    }

    /// Executions of `class` on `core`.
    #[inline]
    pub fn count(&self, core: usize, class: InstClass) -> u64 {
        self.counts[core][class as usize]
    }

    /// Total executions of `class` across all cores.
    pub fn total(&self, class: InstClass) -> u64 {
        self.counts.iter().map(|c| c[class as usize]).sum()
    }

    /// Total executions of all classes on `core`.
    pub fn core_total(&self, core: usize) -> u64 {
        self.counts[core].iter().sum()
    }

    /// Cycles consumed by `core`: Σ count × [`InstClass::cycles`], exact.
    pub fn cycles(&self, core: usize) -> u64 {
        InstClass::ALL
            .into_iter()
            .map(|c| self.count(core, c) * c.cycles())
            .sum()
    }

    /// Energy consumed by `core` (feeds the thermal model): Σ count ×
    /// [`InstClass::energy`], summed in [`InstClass::ALL`] order.
    pub fn energy(&self, core: usize) -> f64 {
        InstClass::ALL
            .into_iter()
            .map(|c| self.count(core, c) as f64 * c.energy())
            .sum()
    }

    /// The classes executed at least once, with totals, descending.
    pub fn profile(&self) -> Vec<(InstClass, u64)> {
        let mut v: Vec<(InstClass, u64)> = InstClass::ALL
            .into_iter()
            .map(|c| (c, self.total(c)))
            .filter(|&(_, n)| n > 0)
            .collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        for c in &mut self.counts {
            *c = [0; InstClass::ALL.len()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut u = UsageCounters::new(2);
        u.record(0, InstClass::IntArith);
        u.record(0, InstClass::IntArith);
        u.record(1, InstClass::FloatMul);
        assert_eq!(u.count(0, InstClass::IntArith), 2);
        assert_eq!(u.count(1, InstClass::IntArith), 0);
        assert_eq!(u.total(InstClass::IntArith), 2);
        assert_eq!(u.core_total(1), 1);
    }

    #[test]
    fn profile_sorted_and_sparse() {
        let mut u = UsageCounters::new(1);
        for _ in 0..5 {
            u.record(0, InstClass::VecFma);
        }
        u.record(0, InstClass::Load);
        let p = u.profile();
        assert_eq!(p[0], (InstClass::VecFma, 5));
        assert_eq!(p[1], (InstClass::Load, 1));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn reset_zeroes() {
        let mut u = UsageCounters::new(1);
        u.record(0, InstClass::Crc);
        u.reset();
        assert_eq!(u.core_total(0), 0);
    }
}

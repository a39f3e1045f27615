//! The processor feature taxonomy of Observation 5.
//!
//! The study identifies five vulnerable features: arithmetic logic
//! computation, vector operations, floating-point calculation, cache
//! coherency, and transactional memory. Features split into two SDC types —
//! *computation* and *consistency* — that demand different testing
//! strategies (consistency SDCs only manifest under multi-threaded tests).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A processor feature that can harbour an SDC-producing defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Feature {
    /// Arithmetic logic computation (integer ALU, bit operations, shifts).
    Alu,
    /// Vector (SIMD) operations.
    VecUnit,
    /// Scalar floating-point calculation, including complex math functions.
    Fpu,
    /// Cache coherency between cores.
    Cache,
    /// Transactional memory (hardware transactional regions).
    TrxMem,
}

impl Feature {
    /// All five features, in the order of the paper's Figure 2.
    pub const ALL: [Feature; 5] = [
        Feature::Alu,
        Feature::VecUnit,
        Feature::Fpu,
        Feature::Cache,
        Feature::TrxMem,
    ];

    /// The SDC type this feature produces when defective.
    ///
    /// Computation SDCs come from defective arithmetic (ALU, vector, FPU);
    /// consistency SDCs come from defective consistency guarantees (cache
    /// coherency, transactional memory).
    pub fn sdc_type(self) -> SdcType {
        match self {
            Feature::Alu | Feature::VecUnit | Feature::Fpu => SdcType::Computation,
            Feature::Cache | Feature::TrxMem => SdcType::Consistency,
        }
    }

    /// Whether detecting a defect in this feature requires multi-threaded
    /// testcases (true exactly for consistency features).
    pub fn needs_multithread(self) -> bool {
        self.sdc_type() == SdcType::Consistency
    }

    /// Short label used in tables and figures (matches Figure 2 ticks).
    pub fn label(self) -> &'static str {
        match self {
            Feature::Alu => "ALU",
            Feature::VecUnit => "VecUnit",
            Feature::Fpu => "FPU",
            Feature::Cache => "Cache",
            Feature::TrxMem => "TrxMem",
        }
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The two SDC classes of Section 4.1.
///
/// The paper distinguishes them because (1) consistency SDCs can only be
/// detected with multi-threaded tests, and (2) when one processor has
/// multiple defective features, they always belong to one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SdcType {
    /// Wrong results from defective arithmetic operations.
    Computation,
    /// Violations of consistency guarantees (stale reads, broken
    /// transactional isolation); these have no deterministic value pattern.
    Consistency,
}

impl fmt::Display for SdcType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdcType::Computation => f.write_str("computation"),
            SdcType::Consistency => f.write_str("consistency"),
        }
    }
}

serde::impl_json_unit_enum!(SdcType {
    Computation,
    Consistency
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_partition_matches_paper() {
        assert_eq!(Feature::Alu.sdc_type(), SdcType::Computation);
        assert_eq!(Feature::VecUnit.sdc_type(), SdcType::Computation);
        assert_eq!(Feature::Fpu.sdc_type(), SdcType::Computation);
        assert_eq!(Feature::Cache.sdc_type(), SdcType::Consistency);
        assert_eq!(Feature::TrxMem.sdc_type(), SdcType::Consistency);
    }

    #[test]
    fn only_consistency_needs_multithread() {
        for f in Feature::ALL {
            assert_eq!(f.needs_multithread(), f.sdc_type() == SdcType::Consistency);
        }
    }

    #[test]
    fn all_lists_five_distinct_features() {
        let mut set = std::collections::HashSet::new();
        for f in Feature::ALL {
            assert!(set.insert(f));
        }
        assert_eq!(set.len(), 5);
    }
}

//! SDC records: the unit of evidence in the study.
//!
//! Every detected silent corruption produces one record: which setting
//! (CPU × core × testcase) produced it, the expected and actual bit
//! representations, the core temperature at the time, and the virtual
//! timestamp. All bit-level analyses (Figures 4–7) and reproducibility
//! analyses (Figures 8–9) consume streams of these records.

use crate::clock::Duration;
use crate::datatype::DataType;
use crate::feature::SdcType;
use crate::ids::SettingId;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Direction of a single bitflip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlipDirection {
    /// The expected bit was 0, the actual bit is 1.
    ZeroToOne,
    /// The expected bit was 1, the actual bit is 0.
    OneToZero,
}

/// One detected silent data corruption.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdcRecord {
    /// The setting (CPU, physical core, testcase) that produced the error.
    pub setting: SettingId,
    /// Computation or consistency error (Section 4.1).
    pub kind: SdcType,
    /// Datatype of the corrupted operation result. For consistency errors
    /// this describes the corrupted datum observed by the checker.
    pub datatype: DataType,
    /// Expected (correct) representation, low `datatype.bits()` bits.
    ///
    /// Meaningless for consistency records, which have no deterministic
    /// value pattern (Section 4.2 excludes them from bit analyses).
    pub expected: u128,
    /// Actual (corrupted) representation.
    pub actual: u128,
    /// Core temperature when the error was produced, in °C.
    pub temp_c: f64,
    /// Virtual time at which the error was detected.
    pub at: Duration,
}

impl SdcRecord {
    /// The exclusive-or mask of expected and actual representations: the
    /// set of flipped bit positions. This is the paper's "mask" used to
    /// mine bitflip patterns (Observation 8).
    pub fn mask(&self) -> u128 {
        (self.expected ^ self.actual) & self.datatype.mask()
    }

    /// Number of flipped bits.
    pub fn flipped_bits(&self) -> u32 {
        self.mask().count_ones()
    }

    /// Iterates over flipped bit positions with their directions
    /// (bit 0 = least significant).
    pub fn flips(&self) -> impl Iterator<Item = (u32, FlipDirection)> + '_ {
        let mask = self.mask();
        let expected = self.expected;
        (0..self.datatype.bits()).filter_map(move |i| {
            if (mask >> i) & 1 == 1 {
                let dir = if (expected >> i) & 1 == 0 {
                    FlipDirection::ZeroToOne
                } else {
                    FlipDirection::OneToZero
                };
                Some((i, dir))
            } else {
                None
            }
        })
    }

    /// Expected value as a typed [`Value`].
    pub fn expected_value(&self) -> Value {
        Value::from_bits(self.datatype, self.expected)
    }

    /// Actual value as a typed [`Value`].
    pub fn actual_value(&self) -> Value {
        Value::from_bits(self.datatype, self.actual)
    }

    /// Relative precision loss `|expected − actual| / |expected|`
    /// (numeric datatypes only; see [`Value::rel_precision_loss`]).
    pub fn rel_precision_loss(&self) -> Option<f64> {
        Value::rel_precision_loss(self.expected_value(), self.actual_value())
    }

    /// True if this record is a computation SDC (included in the bit-level
    /// analyses of Section 4.2).
    pub fn is_computation(&self) -> bool {
        self.kind == SdcType::Computation
    }
}

serde::impl_json_unit_enum!(FlipDirection {
    ZeroToOne,
    OneToZero
});
serde::impl_json_struct!(SdcRecord {
    setting,
    kind,
    datatype,
    expected,
    actual,
    temp_c,
    at,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CoreId, CpuId, TestcaseId};

    fn record(dt: DataType, expected: u128, actual: u128) -> SdcRecord {
        SdcRecord {
            setting: SettingId {
                cpu: CpuId(1),
                core: CoreId(0),
                testcase: TestcaseId(2),
            },
            kind: SdcType::Computation,
            datatype: dt,
            expected,
            actual,
            temp_c: 55.0,
            at: Duration::from_secs(10),
        }
    }

    #[test]
    fn mask_is_xor_within_width() {
        let r = record(DataType::I32, 0b1010, 0b0110);
        assert_eq!(r.mask(), 0b1100);
        assert_eq!(r.flipped_bits(), 2);
    }

    #[test]
    fn mask_truncates_to_datatype_width() {
        let r = record(DataType::Byte, 0xff, 0x1ff);
        // Bit 8 is outside a byte; only in-width bits count.
        assert_eq!(r.mask(), 0x00);
        assert_eq!(r.flipped_bits(), 0);
    }

    #[test]
    fn flip_directions() {
        let r = record(DataType::Byte, 0b0000_0101, 0b0000_0110);
        let flips: Vec<_> = r.flips().collect();
        assert_eq!(
            flips,
            vec![(0, FlipDirection::OneToZero), (1, FlipDirection::ZeroToOne)]
        );
    }

    #[test]
    fn precision_loss_delegates_to_value() {
        let e = Value::from_f64(2.0);
        let r = record(DataType::F64, e.bits, e.bits ^ 1);
        let loss = r.rel_precision_loss().unwrap();
        assert!(loss > 0.0 && loss < 1e-15);
    }

    #[test]
    fn serde_roundtrip() {
        let r = record(DataType::F32, 0x3f80_0000, 0x3f80_0001);
        let json = serde_json::to_string(&r).unwrap();
        let back: SdcRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}

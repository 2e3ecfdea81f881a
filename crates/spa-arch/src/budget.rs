//! Hardware resource budgets (Table II of the paper).

use std::fmt;

/// A malformed [`HwBudget`].
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// Zero processing elements.
    NoPes,
    /// Zero on-chip memory.
    NoMemory,
    /// Bandwidth or frequency is not a positive finite number.
    BadRate {
        /// Which rate field is broken.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An FPGA budget whose on-chip capacity is not a whole number of
    /// BRAM36K blocks, so BRAM accounting would silently truncate.
    UnalignedBram {
        /// On-chip capacity in bytes.
        on_chip_bytes: u64,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::NoPes => write!(f, "budget has zero processing elements"),
            BudgetError::NoMemory => write!(f, "budget has zero on-chip memory"),
            BudgetError::BadRate { field, value } => {
                write!(f, "budget {field} must be positive and finite, got {value}")
            }
            BudgetError::UnalignedBram { on_chip_bytes } => write!(
                f,
                "FPGA on-chip capacity {on_chip_bytes} B is not a multiple of one \
                 BRAM36K block ({BRAM36K_BYTES} B)"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Implementation platform of a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// ASIC: the PE count is literal MAC units.
    Asic,
    /// FPGA: the PE count is DSP slices (one int8 MAC per DSP per cycle),
    /// and on-chip memory is BRAM.
    Fpga,
}

/// A hardware resource envelope a design must fit in.
///
/// For ASIC scenarios these reproduce the budgets of general DNN processors
/// (the paper customizes an SPA accelerator *of the same resources* and
/// compares); for FPGAs they are the device capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct HwBudget {
    /// Budget name (e.g. `"eyeriss"`).
    pub name: String,
    /// Platform kind.
    pub platform: Platform,
    /// MAC units (ASIC) or DSP slices (FPGA).
    pub pes: usize,
    /// On-chip memory capacity in bytes.
    pub on_chip_bytes: u64,
    /// DRAM bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
}

/// Bytes in one BRAM36K block (36 Kbit = 4.5 KB; 4 KB usable for byte-wide
/// data ports is the conventional accounting).
pub(crate) const BRAM36K_BYTES: u64 = 4096;

impl HwBudget {
    /// Eyeriss (dense) budget: 192 PEs, 123 KB, 25 GB/s @ 200 MHz.
    pub fn eyeriss() -> Self {
        Self {
            name: "eyeriss".into(),
            platform: Platform::Asic,
            pes: 192,
            on_chip_bytes: 123 * 1024,
            bandwidth_gbps: 25.0,
            freq_mhz: 200.0,
        }
    }

    /// NVDLA-Small budget: 256 PEs, 256 KB, 5 GB/s @ 1 GHz.
    pub fn nvdla_small() -> Self {
        Self {
            name: "nvdla-small".into(),
            platform: Platform::Asic,
            pes: 256,
            on_chip_bytes: 256 * 1024,
            bandwidth_gbps: 5.0,
            freq_mhz: 1000.0,
        }
    }

    /// NVDLA-Large budget: 2048 PEs, 512 KB, 20 GB/s @ 1.37 GHz (the
    /// configuration whose 5.6 int8 TOPs and 280 OPs/Byte ridge point
    /// Section II cites).
    pub fn nvdla_large() -> Self {
        Self {
            name: "nvdla-large".into(),
            platform: Platform::Asic,
            pes: 2048,
            on_chip_bytes: 512 * 1024,
            bandwidth_gbps: 20.0,
            freq_mhz: 1370.0,
        }
    }

    /// EdgeTPU budget: 8192 PEs, 8 MB, 0.5 GB/s @ 500 MHz.
    pub fn edge_tpu() -> Self {
        Self {
            name: "edge-tpu".into(),
            platform: Platform::Asic,
            pes: 8192,
            on_chip_bytes: 8192 * 1024,
            bandwidth_gbps: 0.5,
            freq_mhz: 500.0,
        }
    }

    /// Avnet Ultra96 (Xilinx XAZU3EG): 360 DSPs, 216 BRAM36K, 3.5 GB/s
    /// @ 300 MHz.
    pub fn zu3eg() -> Self {
        Self {
            name: "zu3eg".into(),
            platform: Platform::Fpga,
            pes: 360,
            on_chip_bytes: 216 * BRAM36K_BYTES,
            bandwidth_gbps: 3.5,
            freq_mhz: 300.0,
        }
    }

    /// Xilinx ZC706 (XC7Z045): 900 DSPs, 545 BRAM36K, 5.3 GB/s @ 200 MHz.
    pub fn z7045() -> Self {
        Self {
            name: "7z045".into(),
            platform: Platform::Fpga,
            pes: 900,
            on_chip_bytes: 545 * BRAM36K_BYTES,
            bandwidth_gbps: 5.3,
            freq_mhz: 200.0,
        }
    }

    /// AlphaData 8K5 (XCKU115): 5520 DSPs, 2160 BRAM36K, 19.2 GB/s
    /// @ 200 MHz.
    pub fn ku115() -> Self {
        Self {
            name: "ku115".into(),
            platform: Platform::Fpga,
            pes: 5520,
            on_chip_bytes: 2160 * BRAM36K_BYTES,
            bandwidth_gbps: 19.2,
            freq_mhz: 200.0,
        }
    }

    /// The four ASIC scenarios of Figure 12, in the paper's order.
    pub fn asic_suite() -> Vec<Self> {
        vec![
            Self::eyeriss(),
            Self::nvdla_small(),
            Self::nvdla_large(),
            Self::edge_tpu(),
        ]
    }

    /// The three FPGA devices of Table III.
    pub fn fpga_suite() -> Vec<Self> {
        vec![Self::zu3eg(), Self::z7045(), Self::ku115()]
    }

    /// The preset named `name` (`"eyeriss"`, `"7z045"`, …) among
    /// [`HwBudget::asic_suite`] and [`HwBudget::fpga_suite`].
    pub fn by_name(name: &str) -> Option<Self> {
        Self::asic_suite()
            .into_iter()
            .chain(Self::fpga_suite())
            .find(|b| b.name == name)
    }

    /// Pre-flight sanity check: positive PE/memory capacities, positive
    /// finite rates, and BRAM-block-aligned capacity on FPGA platforms.
    /// All Table II/III presets pass; spec-file and user-constructed
    /// budgets should be validated before entering the search.
    ///
    /// # Errors
    ///
    /// The first [`BudgetError`] found.
    pub fn validate(&self) -> Result<(), BudgetError> {
        if self.pes == 0 {
            return Err(BudgetError::NoPes);
        }
        if self.on_chip_bytes == 0 {
            return Err(BudgetError::NoMemory);
        }
        for (field, value) in [
            ("bandwidth_gbps", self.bandwidth_gbps),
            ("freq_mhz", self.freq_mhz),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(BudgetError::BadRate { field, value });
            }
        }
        if self.platform == Platform::Fpga && self.on_chip_bytes % BRAM36K_BYTES != 0 {
            return Err(BudgetError::UnalignedBram {
                on_chip_bytes: self.on_chip_bytes,
            });
        }
        Ok(())
    }

    /// Peak compute performance in MAC/s (1 MAC per PE per cycle).
    pub fn peak_macs_per_sec(&self) -> f64 {
        self.pes as f64 * self.freq_mhz * 1e6
    }

    /// Peak performance in OP/s (2 OPs per MAC, the paper's convention).
    pub fn peak_ops_per_sec(&self) -> f64 {
        2.0 * self.peak_macs_per_sec()
    }

    /// Roofline ridge point in OPs per byte (Figure 2): the minimum CTC
    /// ratio at which the budget reaches peak performance.
    pub fn ridge_ops_per_byte(&self) -> f64 {
        self.peak_ops_per_sec() / (self.bandwidth_gbps * 1e9)
    }

    /// Attainable performance (OP/s) of a workload with CTC ratio
    /// `macs_per_byte` under this budget's roofline.
    pub fn roofline_ops_per_sec(&self, macs_per_byte: f64) -> f64 {
        // The roofline is stated in OPs; CTC in MACs/byte contributes 2 OPs
        // per MAC.
        let ops_per_byte = 2.0 * macs_per_byte;
        (self.bandwidth_gbps * 1e9 * ops_per_byte).min(self.peak_ops_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_presets() {
        let e = HwBudget::eyeriss();
        assert_eq!((e.pes, e.on_chip_bytes), (192, 123 * 1024));
        let nl = HwBudget::nvdla_large();
        assert_eq!(nl.pes, 2048);
        assert_eq!(nl.bandwidth_gbps, 20.0);
        let k = HwBudget::ku115();
        assert_eq!(k.platform, Platform::Fpga);
        assert_eq!(k.on_chip_bytes, 2160 * 4096);
    }

    #[test]
    fn nvdla_large_ridge_matches_paper() {
        // Section II: NVDLA has 5.6 TOPs and 20 GB/s -> 280 OPs/Byte.
        let b = HwBudget::nvdla_large();
        assert!((b.peak_ops_per_sec() / 1e12 - 5.6).abs() < 0.1);
        assert!((b.ridge_ops_per_byte() - 280.0).abs() < 5.0);
    }

    #[test]
    fn edge_tpu_is_severely_memory_bound() {
        let b = HwBudget::edge_tpu();
        assert!(b.ridge_ops_per_byte() > 10_000.0);
    }

    #[test]
    fn roofline_clamps_at_peak() {
        let b = HwBudget::eyeriss();
        let low = b.roofline_ops_per_sec(0.5);
        let high = b.roofline_ops_per_sec(1e9);
        assert!(low < high);
        assert_eq!(high, b.peak_ops_per_sec());
        // Below the ridge, performance is bandwidth * ops-per-byte.
        assert!((low - 0.5 * 2.0 * 25.0e9).abs() < 1.0);
    }

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(HwBudget::asic_suite().len(), 4);
        assert_eq!(HwBudget::fpga_suite().len(), 3);
    }

    #[test]
    fn presets_are_found_by_name() {
        for b in HwBudget::asic_suite().into_iter().chain(HwBudget::fpga_suite()) {
            assert_eq!(HwBudget::by_name(&b.name), Some(b));
        }
        assert_eq!(HwBudget::by_name("no-such-budget"), None);
    }

    #[test]
    fn all_presets_validate() {
        for b in HwBudget::asic_suite().into_iter().chain(HwBudget::fpga_suite()) {
            b.validate().expect("preset budget is well-formed");
        }
    }

    #[test]
    fn validate_rejects_degenerate_budgets() {
        let mut b = HwBudget::eyeriss();
        b.pes = 0;
        assert_eq!(b.validate(), Err(BudgetError::NoPes));

        let mut b = HwBudget::eyeriss();
        b.bandwidth_gbps = f64::NAN;
        assert!(matches!(b.validate(), Err(BudgetError::BadRate { .. })));

        let mut b = HwBudget::eyeriss();
        b.freq_mhz = -1.0;
        assert!(matches!(b.validate(), Err(BudgetError::BadRate { .. })));

        let mut b = HwBudget::zu3eg();
        b.on_chip_bytes += 1;
        assert!(matches!(b.validate(), Err(BudgetError::UnalignedBram { .. })));
    }
}

//! Per-access energy and area constants (28 nm class) and the energy
//! breakdown record.


/// Per-access energy constants.
///
/// Values follow the widely-used accelerator energy hierarchy (register <<
/// on-chip SRAM << DRAM, roughly 1 : 6 : 200 per the Eyeriss
/// characterization), rescaled to 28 nm int8 arithmetic: a MAC including
/// its local register traffic costs ~0.25 pJ, on-chip SRAM ~0.8 pJ/byte,
/// LPDDR4-class DRAM ~32 pJ/byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one int8 MAC including PE-local register traffic (pJ).
    pub mac_pj: f64,
    /// On-chip SRAM access energy (pJ per byte) for activation and weight
    /// buffers.
    pub sram_pj_per_byte: f64,
    /// Partial-sum accumulator access energy (pJ per byte). Accumulators
    /// are small per-column register files / latch arrays next to the PE
    /// edge, several times cheaper than the main buffers.
    pub psum_pj_per_byte: f64,
    /// DRAM access energy (pJ per byte).
    pub dram_pj_per_byte: f64,
}

impl EnergyModel {
    /// Representative TSMC 28 nm constants.
    pub fn tsmc28() -> Self {
        Self {
            mac_pj: 0.25,
            sram_pj_per_byte: 0.8,
            psum_pj_per_byte: 0.2,
            dram_pj_per_byte: 32.0,
        }
    }

    /// FNV-1a fingerprint of the model's exact bits.
    ///
    /// Checkpoints store it so that a resume under a different energy
    /// model is rejected instead of silently mixing results of two
    /// models.
    pub fn fingerprint(&self) -> u64 {
        let bytes: Vec<u8> = [
            self.mac_pj,
            self.sram_pj_per_byte,
            self.psum_pj_per_byte,
            self.dram_pj_per_byte,
        ]
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
        faultsim::rng::fnv1a(&bytes)
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::tsmc28()
    }
}

/// Area constants for ASIC resource accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Area of one int8 MAC PE including pipeline registers (um^2).
    pub pe_um2: f64,
    /// SRAM macro density (um^2 per byte).
    pub sram_um2_per_byte: f64,
}

impl AreaModel {
    /// Representative TSMC 28 nm constants.
    pub fn tsmc28() -> Self {
        Self {
            pe_um2: 580.0,
            sram_um2_per_byte: 0.6,
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::tsmc28()
    }
}

/// Energy consumed by one layer execution on one PU, by component.
///
/// DRAM energy is *not* included here — feature-map DRAM traffic depends on
/// the execution mode (layerwise vs pipelined) and is accounted by the
/// simulator; see `spa-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// MAC (compute) energy, pJ.
    pub mac_pj: f64,
    /// Activation-buffer access energy, pJ.
    pub act_buf_pj: f64,
    /// Weight-buffer access energy, pJ.
    pub wgt_buf_pj: f64,
    /// Partial-sum buffer access energy, pJ.
    pub psum_pj: f64,
}

impl EnergyBreakdown {
    /// Total on-chip energy (pJ).
    #[inline(always)]
    pub fn total_pj(&self) -> f64 {
        self.mac_pj + self.act_buf_pj + self.wgt_buf_pj + self.psum_pj
    }

    /// On-chip data-moving energy only (everything except MACs) — the
    /// quantity Figure 19 of the paper compares across dataflows.
    pub fn data_moving_pj(&self) -> f64 {
        self.act_buf_pj + self.wgt_buf_pj + self.psum_pj
    }

    /// Component-wise sum.
    pub fn add(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            mac_pj: self.mac_pj + other.mac_pj,
            act_buf_pj: self.act_buf_pj + other.act_buf_pj,
            wgt_buf_pj: self.wgt_buf_pj + other.wgt_buf_pj,
            psum_pj: self.psum_pj + other.psum_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_hierarchy_holds() {
        let e = EnergyModel::tsmc28();
        assert!(e.mac_pj < e.sram_pj_per_byte);
        assert!(e.psum_pj_per_byte < e.sram_pj_per_byte);
        assert!(e.sram_pj_per_byte * 10.0 < e.dram_pj_per_byte);
    }

    #[test]
    fn breakdown_sums() {
        let a = EnergyBreakdown {
            mac_pj: 1.0,
            act_buf_pj: 2.0,
            wgt_buf_pj: 3.0,
            psum_pj: 4.0,
        };
        assert_eq!(a.total_pj(), 10.0);
        assert_eq!(a.data_moving_pj(), 9.0);
        let b = a.add(&a);
        assert_eq!(b.total_pj(), 20.0);
    }
}

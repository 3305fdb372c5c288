//! DRAM organization and timing configuration (Table I of the paper).

/// Full configuration of one simulated DRAM channel.
///
/// All timing fields are in memory-clock cycles at [`Self::freq_mhz`].
/// Defaults follow Table I: DDR4-3200 at 1600 MHz with
/// tCL/tCCDS/tCCDL/tCWL/tWTRS/tWTRL/tRP/tRCD/tRAS = 22/4/10/16/4/12/22/22/56.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Memory clock in MHz (data rate is 2x, e.g. 1600 MHz => 3200 MT/s).
    pub freq_mhz: u32,
    /// Number of ranks on the channel.
    pub ranks: u32,
    /// Bank groups per rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Cache-line-sized columns per row (8 KB row / 64 B line = 128).
    pub columns: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,

    /// CAS latency (READ command to first data beat).
    pub t_cl: u64,
    /// CAS write latency (WRITE command to first data beat).
    pub t_cwl: u64,
    /// ACT to internal read/write delay.
    pub t_rcd: u64,
    /// Precharge period.
    pub t_rp: u64,
    /// ACT to PRE minimum.
    pub t_ras: u64,
    /// Column-to-column, different bank group.
    pub t_ccd_s: u64,
    /// Column-to-column, same bank group.
    pub t_ccd_l: u64,
    /// Write-to-read turnaround, different bank group.
    pub t_wtr_s: u64,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: u64,
    /// ACT-to-ACT, different bank group.
    pub t_rrd_s: u64,
    /// ACT-to-ACT, same bank group.
    pub t_rrd_l: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// READ to PRE minimum.
    pub t_rtp: u64,
    /// Write recovery (end of write burst to PRE).
    pub t_wr: u64,
    /// Refresh interval.
    pub t_refi: u64,
    /// Refresh cycle time.
    pub t_rfc: u64,

    /// Data-bus occupancy of a read burst (BL8 on DDR4 = 4 clocks).
    pub read_burst_cycles: u64,
    /// Data-bus occupancy of a write burst. 4 for BL8; 5 for the BL10
    /// bursts SecDDR's eWCRC requires on DDR4.
    pub write_burst_cycles: u64,
    /// Extra cycles a write occupies the target chip after the burst
    /// (models the OTPw generation that starts only once the write command
    /// arrives at the SecDDR ECC chip).
    pub write_extra_cycles: u64,

    /// Schedule strictly first-come-first-served (no row-hit-first pass).
    /// FR-FCFS (the default, `false`) matches real controllers; FCFS is an
    /// ablation knob.
    pub fcfs: bool,

    /// Read queue capacity.
    pub read_queue: usize,
    /// Write queue capacity.
    pub write_queue: usize,
    /// Enter write-drain mode at or above this many queued writes.
    pub write_drain_hi: usize,
    /// Leave write-drain mode at or below this many queued writes.
    pub write_drain_lo: usize,
}

impl DramConfig {
    /// Table I configuration: 16 GB DDR4-3200, 1 channel, 2 ranks,
    /// 4 bank groups x 4 banks, x8 devices, 64-entry queues.
    pub fn ddr4_3200() -> Self {
        Self {
            freq_mhz: 1600,
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 65_536,
            columns: 128,
            line_bytes: 64,
            t_cl: 22,
            t_cwl: 16,
            t_rcd: 22,
            t_rp: 22,
            t_ras: 56,
            t_ccd_s: 4,
            t_ccd_l: 10,
            t_wtr_s: 4,
            t_wtr_l: 12,
            t_rrd_s: 9,
            t_rrd_l: 11,
            t_faw: 34,
            t_rtp: 12,
            t_wr: 24,
            t_refi: 12_480,
            t_rfc: 560,
            read_burst_cycles: 4,
            write_burst_cycles: 4,
            write_extra_cycles: 0,
            fcfs: false,
            read_queue: 64,
            write_queue: 64,
            write_drain_hi: 40,
            write_drain_lo: 16,
        }
    }

    /// The SecDDR variant: identical organization but BL10 write bursts for
    /// the encrypted eWCRC (Section IV-B item 2 of the paper).
    pub fn ddr4_3200_ewcrc() -> Self {
        Self {
            write_burst_cycles: 5,
            ..Self::ddr4_3200()
        }
    }

    /// A DDR5-4800 channel: 2400 MHz clock, BL16 bursts (8 clocks), twice
    /// the bank groups, and nanosecond-equivalent core timings. Used for
    /// the paper's DDR5 discussion: enabling eWCRC costs BL16→18 (+12.5%
    /// write-burst occupancy) instead of DDR4's BL8→10 (+25%).
    pub fn ddr5_4800() -> Self {
        let scale = |c: u64| -> u64 { (c * 2400).div_ceil(1600) };
        let base = Self::ddr4_3200();
        Self {
            freq_mhz: 2400,
            bank_groups: 8,
            rows: 65_536,
            t_cl: scale(base.t_cl),
            t_cwl: scale(base.t_cwl),
            t_rcd: scale(base.t_rcd),
            t_rp: scale(base.t_rp),
            t_ras: scale(base.t_ras),
            t_ccd_s: 8, // burst-length-bound: BL16 on DDR5
            t_ccd_l: scale(base.t_ccd_l),
            t_wtr_s: scale(base.t_wtr_s),
            t_wtr_l: scale(base.t_wtr_l),
            t_rrd_s: scale(base.t_rrd_s),
            t_rrd_l: scale(base.t_rrd_l),
            t_faw: scale(base.t_faw),
            t_rtp: scale(base.t_rtp),
            t_wr: scale(base.t_wr),
            t_refi: scale(base.t_refi),
            t_rfc: scale(base.t_rfc),
            read_burst_cycles: 8,
            write_burst_cycles: 8,
            ..base
        }
    }

    /// DDR5 with SecDDR's eWCRC: write burst length 16 → 18 (9 clocks).
    pub fn ddr5_4800_ewcrc() -> Self {
        Self {
            write_burst_cycles: 9,
            ..Self::ddr5_4800()
        }
    }

    /// The "realistic InvisiMem" channel: derated to 1200 MHz (2400 MT/s)
    /// to account for the centralized data buffer (Section VI-D). Timing
    /// parameters stay at the same nanosecond values, so cycle counts are
    /// rescaled by 1200/1600.
    pub fn ddr4_2400_derated() -> Self {
        let base = Self::ddr4_3200();
        let scale = |c: u64| -> u64 { (c * 1200).div_ceil(1600) };
        Self {
            freq_mhz: 1200,
            t_cl: scale(base.t_cl),
            t_cwl: scale(base.t_cwl),
            t_rcd: scale(base.t_rcd),
            t_rp: scale(base.t_rp),
            t_ras: scale(base.t_ras),
            t_ccd_s: base.t_ccd_s, // burst-length-bound, stays in clocks
            t_ccd_l: scale(base.t_ccd_l),
            t_wtr_s: scale(base.t_wtr_s),
            t_wtr_l: scale(base.t_wtr_l),
            t_rrd_s: scale(base.t_rrd_s),
            t_rrd_l: scale(base.t_rrd_l),
            t_faw: scale(base.t_faw),
            t_rtp: scale(base.t_rtp),
            t_wr: scale(base.t_wr),
            t_refi: scale(base.t_refi),
            t_rfc: scale(base.t_rfc),
            ..base
        }
    }

    /// Total banks on the channel.
    pub fn total_banks(&self) -> u32 {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Channel capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.total_banks())
            * u64::from(self.rows)
            * u64::from(self.columns)
            * u64::from(self.line_bytes)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.ranks.is_power_of_two()
            || !self.bank_groups.is_power_of_two()
            || !self.banks_per_group.is_power_of_two()
            || !self.rows.is_power_of_two()
            || !self.columns.is_power_of_two()
        {
            return Err("organization fields must be powers of two".into());
        }
        // Every scheduler bank mask is a `u64` indexed by flat bank.
        if self.total_banks() > 64 {
            return Err(format!(
                "{} banks per channel exceed the limit of 64",
                self.total_banks()
            ));
        }
        if self.write_drain_lo >= self.write_drain_hi {
            return Err("write_drain_lo must be below write_drain_hi".into());
        }
        if self.write_drain_hi > self.write_queue {
            return Err("write_drain_hi must fit in the write queue".into());
        }
        if self.t_ras < self.t_rcd {
            return Err("tRAS must cover tRCD".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_3200()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_parameters() {
        let c = DramConfig::ddr4_3200();
        assert_eq!(
            (
                c.t_cl, c.t_ccd_s, c.t_ccd_l, c.t_cwl, c.t_wtr_s, c.t_wtr_l, c.t_rp, c.t_rcd,
                c.t_ras
            ),
            (22, 4, 10, 16, 4, 12, 22, 22, 56)
        );
        assert_eq!(c.read_queue, 64);
        assert_eq!(c.write_queue, 64);
    }

    #[test]
    fn capacity_is_16_gib() {
        let c = DramConfig::ddr4_3200();
        assert_eq!(c.capacity_bytes(), 16 * (1u64 << 30));
    }

    #[test]
    fn ewcrc_variant_extends_write_burst_only() {
        let base = DramConfig::ddr4_3200();
        let e = DramConfig::ddr4_3200_ewcrc();
        assert_eq!(e.write_burst_cycles, 5);
        assert_eq!(e.read_burst_cycles, base.read_burst_cycles);
        assert_eq!(e.t_cl, base.t_cl);
    }

    #[test]
    fn derated_config_scales_latency_cycles() {
        let d = DramConfig::ddr4_2400_derated();
        assert_eq!(d.freq_mhz, 1200);
        // 22 cycles at 1600MHz = 13.75ns -> ceil to 17 cycles at 1200MHz.
        assert_eq!(d.t_cl, 17);
        assert_eq!(d.t_ccd_s, 4, "burst-bound constraint stays in clocks");
    }

    #[test]
    fn default_config_validates() {
        assert!(DramConfig::ddr4_3200().validate().is_ok());
        assert!(DramConfig::ddr4_3200_ewcrc().validate().is_ok());
        assert!(DramConfig::ddr4_2400_derated().validate().is_ok());
        assert!(DramConfig::ddr5_4800().validate().is_ok());
        assert!(DramConfig::ddr5_4800_ewcrc().validate().is_ok());
    }

    #[test]
    fn more_than_64_banks_per_channel_is_rejected() {
        let mut c = DramConfig::ddr4_3200();
        c.ranks = 8;
        assert_eq!(c.total_banks(), 128);
        let err = c.validate().unwrap_err();
        assert!(err.contains("limit of 64"), "{err}");
        let d5 = DramConfig::ddr5_4800();
        assert_eq!(d5.total_banks(), 64);
        assert!(d5.validate().is_ok());
    }

    #[test]
    fn ddr5_ewcrc_burst_overhead_is_half_of_ddr4s() {
        // The paper: "for DDR5 memories the impact of increasing the write
        // burst length is smaller — from 16 to 18" (12.5% vs 25%).
        let d4 = DramConfig::ddr4_3200();
        let d4e = DramConfig::ddr4_3200_ewcrc();
        let d5 = DramConfig::ddr5_4800();
        let d5e = DramConfig::ddr5_4800_ewcrc();
        let ddr4_overhead = d4e.write_burst_cycles as f64 / d4.write_burst_cycles as f64 - 1.0;
        let ddr5_overhead = d5e.write_burst_cycles as f64 / d5.write_burst_cycles as f64 - 1.0;
        assert!((ddr4_overhead - 0.25).abs() < 1e-9);
        assert!((ddr5_overhead - 0.125).abs() < 1e-9);
    }

    #[test]
    fn ddr5_has_more_bank_groups_and_bigger_bursts() {
        let d5 = DramConfig::ddr5_4800();
        assert_eq!(d5.bank_groups, 8);
        assert_eq!(d5.read_burst_cycles, 8);
        assert_eq!(d5.freq_mhz, 2400);
        assert_eq!(d5.capacity_bytes(), 32 * (1u64 << 30));
    }

    #[test]
    fn validation_catches_bad_watermarks() {
        let mut c = DramConfig::ddr4_3200();
        c.write_drain_lo = 50;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_non_power_of_two() {
        let mut c = DramConfig::ddr4_3200();
        c.rows = 1000;
        assert!(c.validate().is_err());
    }
}

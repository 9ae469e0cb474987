//! CPU model configuration.

/// Tunable microcode/pipeline parameters.
///
/// Defaults model the 11/780; the sweep ablations flip individual fields
/// (e.g. `decode_overlap` models the 11/750's folding of the decode cycle,
/// discussed in the paper's §5: "the later VAX model 11/750 did [save the
/// non-overlapped I-Decode cycle]").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Overlap the initial decode with the previous instruction's last
    /// cycle for non-PC-changing instructions (11/750-style). The 11/780
    /// does not (`false`).
    pub decode_overlap: bool,
    /// Compute cycles in the TB-miss routine before the PTE read
    /// (probe, region dispatch, address formation).
    pub tb_miss_head_cycles: u32,
    /// Compute cycles in the TB-miss routine after the PTE read
    /// (validity check, TB write, restart).
    pub tb_miss_tail_cycles: u32,
    /// Extra compute cycles when the miss double-faults into a system
    /// page-table fill.
    pub tb_miss_double_cycles: u32,
    /// Compute cycles of interrupt-service microcode around its memory
    /// references (vector fetch, stack pushes).
    pub int_service_body_cycles: u32,
    /// Compute cycles of exception-service microcode.
    pub exc_service_body_cycles: u32,
    /// Compute cycles inserted between a character-string loop's read and
    /// write ("microprogrammed to reduce write stalls by writing only in
    /// every sixth cycle", §4.3).
    pub char_loop_spacing: u32,
    /// One abort cycle is charged every this many instructions, modelling
    /// the paper's "one \[abort\] for each microcode patch" — the WCS
    /// patches on production machines executed at a steady rate. 0
    /// disables.
    pub patch_abort_period: u32,
    /// The host execution engine. A **host-side** choice with no
    /// simulated effect: histograms, hardware counters, and trace
    /// streams are bit-identical across tiers
    /// (`tests/perf_equivalence.rs` proves it; `vax780 bench` measures
    /// the speedup).
    pub tier: Tier,
}

/// The host execution engine behind [`CpuConfig::tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// The byte-by-byte reference loop: every dynamic execution decodes
    /// its bytes afresh, every cycle is one sink call, every translation
    /// scans the TB. Kept as the executable reference the equivalence
    /// suite and `vax780 bench` compare against.
    Naive,
    /// The fast loop: the predecode cache replays each static
    /// instruction's parse, consecutive same-µPC issues reach the sink
    /// as one batched call, no-op prefetcher ticks are skipped, the
    /// one-entry translation shortcuts skip TB scans while the TB
    /// generation proves their outcome, and one `step_budgeted` call
    /// keeps retiring instructions until the budget, the external-event
    /// horizon, or a resume-unsafe instruction ends the run.
    #[default]
    Fast,
}

impl Tier {
    /// Both tiers, reference first.
    pub const ALL: [Tier; 2] = [Tier::Naive, Tier::Fast];

    /// CLI / job-spec / JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Naive => "naive",
            Tier::Fast => "fast",
        }
    }

    /// Parse a tier name (`naive` or `fast`).
    pub fn parse(s: &str) -> Option<Tier> {
        Tier::ALL.into_iter().find(|t| t.name() == s)
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            decode_overlap: false,
            tb_miss_head_cycles: 9,
            tb_miss_tail_cycles: 7,
            tb_miss_double_cycles: 4,
            int_service_body_cycles: 30,
            exc_service_body_cycles: 12,
            char_loop_spacing: 5,
            patch_abort_period: 12,
            tier: Tier::Fast,
        }
    }
}

impl CpuConfig {
    /// The 11/750-style decode-overlap ablation configuration.
    pub fn with_decode_overlap() -> CpuConfig {
        CpuConfig {
            decode_overlap: true,
            ..CpuConfig::default()
        }
    }

    /// The naive reference loop ([`Tier::Naive`]) over the 11/780's
    /// simulated parameters.
    pub fn naive_loop() -> CpuConfig {
        CpuConfig {
            tier: Tier::Naive,
            ..CpuConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_780() {
        let c = CpuConfig::default();
        assert!(!c.decode_overlap);
        // Nominal TB service path: entry + head + read + tail ≈ 18 issue
        // cycles, landing near the paper's 21.6 with stalls.
        assert_eq!(1 + c.tb_miss_head_cycles + 1 + c.tb_miss_tail_cycles, 18);
    }

    #[test]
    fn naive_loop_differs_from_default_only_in_tier() {
        let naive = CpuConfig::naive_loop();
        assert_eq!(naive.tier, Tier::Naive);
        assert_eq!(CpuConfig::default().tier, Tier::Fast);
        assert_eq!(
            CpuConfig {
                tier: Tier::Fast,
                ..naive
            },
            CpuConfig::default()
        );
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in Tier::ALL {
            assert_eq!(Tier::parse(tier.name()), Some(tier));
        }
        assert_eq!(Tier::parse("block"), None);
    }

    #[test]
    fn ablation_flips_overlap_only() {
        let a = CpuConfig::with_decode_overlap();
        assert!(a.decode_overlap);
        assert_eq!(
            a.tb_miss_head_cycles,
            CpuConfig::default().tb_miss_head_cycles
        );
    }
}

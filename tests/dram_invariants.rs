//! Property-based invariants on the DDR4 timing simulator.

use proptest::prelude::*;

use secddr::dram::{DramConfig, DramSystem, MemRequest, ReqKind};

#[derive(Debug, Clone, Copy)]
struct GenReq {
    addr: u64,
    is_write: bool,
    gap: u8,
}

fn req_strategy() -> impl Strategy<Value = GenReq> {
    (any::<u64>(), any::<bool>(), any::<u8>()).prop_map(|(addr, is_write, gap)| GenReq {
        addr: (addr % (16 << 30)) & !63,
        is_write,
        gap,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every accepted request completes exactly once, regardless of the
    /// arrival pattern, and read latency never beats the physical minimum.
    #[test]
    fn requests_complete_exactly_once(reqs in proptest::collection::vec(req_strategy(), 1..150)) {
        let cfg = DramConfig::ddr4_3200();
        let min_read = cfg.t_rcd + cfg.t_cl + cfg.read_burst_cycles;
        let mut dram = DramSystem::new(cfg);
        let mut pending = reqs.clone();
        pending.reverse();
        let mut accepted = 0u64;
        let mut completed = std::collections::HashMap::new();
        let mut id = 0u64;
        let mut idle_gap = 0u8;
        for _ in 0..4_000_000u64 {
            if idle_gap > 0 {
                idle_gap -= 1;
            } else if let Some(r) = pending.last().copied() {
                let kind = if r.is_write { ReqKind::Write } else { ReqKind::Read };
                if dram.enqueue(MemRequest::new(id, kind, r.addr, dram.cycle())).is_ok() {
                    id += 1;
                    accepted += 1;
                    idle_gap = r.gap % 16;
                    pending.pop();
                }
            }
            for c in dram.tick() {
                prop_assert!(
                    completed.insert(c.id, c).is_none(),
                    "request {} completed twice",
                    c.id
                );
                if c.kind == ReqKind::Read {
                    // Forwarded reads can be fast; real reads cannot beat
                    // tRCD+tCL+burst.
                    prop_assert!(
                        c.latency() >= 1 || c.latency() < min_read,
                        "latency {}",
                        c.latency()
                    );
                }
            }
            if pending.is_empty() && dram.is_idle() {
                break;
            }
        }
        prop_assert!(pending.is_empty(), "all requests should be accepted eventually");
        prop_assert_eq!(completed.len() as u64, accepted);
    }

    /// Statistics stay internally consistent, under FR-FCFS and FCFS.
    #[test]
    fn stats_are_consistent(
        reqs in proptest::collection::vec(req_strategy(), 1..100),
        fcfs in any::<bool>(),
    ) {
        let mut cfg = DramConfig::ddr4_3200();
        cfg.fcfs = fcfs;
        // Run on past two refresh intervals, so refresh management
        // precharges the rows the traffic left open and refreshes both
        // ranks.
        let settle = 2 * cfg.t_refi;
        let mut dram = DramSystem::new(cfg);
        for (id, r) in reqs.iter().enumerate() {
            let kind = if r.is_write { ReqKind::Write } else { ReqKind::Read };
            let _ = dram.enqueue(MemRequest::new(id as u64, kind, r.addr, dram.cycle()));
            for _ in 0..(r.gap % 8) {
                dram.tick();
            }
        }
        for _ in 0..200_000 {
            dram.tick();
            if dram.is_idle() && dram.cycle() > settle {
                break;
            }
        }
        let s = dram.stats();
        prop_assert!(s.row_hit_rate() <= 1.0);
        prop_assert!(s.bus_utilization() <= 1.0);
        prop_assert!(s.row_hits <= s.reads - s.forwarded_reads + s.writes);
        prop_assert!(s.activates >= s.precharges.saturating_sub(s.refreshes * 32));
        // A tick that issues anything issues exactly one command, so the
        // commands counted equal the command-issuing ticks.
        let causes = dram.telemetry().causes;
        prop_assert_eq!(
            s.activates + s.precharges + s.refreshes + (s.reads - s.forwarded_reads) + s.writes,
            causes.refresh + causes.issue_hit + causes.issue_miss
        );
    }

    /// The derated (2400 MT/s) channel is never faster in wall-clock time
    /// than the 3200 MT/s channel on the same request stream.
    #[test]
    fn derated_channel_is_slower(reqs in proptest::collection::vec(req_strategy(), 8..64)) {
        let run = |cfg: DramConfig| -> f64 {
            let freq = f64::from(cfg.freq_mhz);
            let mut dram = DramSystem::new(cfg);
            for (i, r) in reqs.iter().enumerate() {
                let kind = if r.is_write { ReqKind::Write } else { ReqKind::Read };
                let _ = dram.enqueue(MemRequest::new(i as u64, kind, r.addr, 0));
            }
            let mut last = 0;
            for _ in 0..2_000_000 {
                for c in dram.tick() {
                    last = last.max(c.finish_cycle);
                }
                if dram.is_idle() {
                    break;
                }
            }
            last as f64 / freq // microseconds
        };
        let fast = run(DramConfig::ddr4_3200());
        let slow = run(DramConfig::ddr4_2400_derated());
        prop_assert!(slow >= fast * 0.999, "derated {slow}us vs full {fast}us");
    }
}

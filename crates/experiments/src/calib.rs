//! Calibration: mapping the paper's observed operating points onto the cost
//! model.
//!
//! The paper does not publish service demands, so we derive them from its
//! *observed saturation points* (see EXPERIMENTS.md, "Calibration", for the
//! algebra). In summary, with think time Z ≈ 6 s:
//!
//! * 50/50, size 300: one slave saturates near 100 users (X ≈ 16 ops/s) and
//!   the master caps total throughput near 22–23 ops/s ⇒ read demand
//!   ≈ 105 ms, write demand ≈ 85 ms, apply demand ≈ 18 ms per op.
//! * 80/20, size 600: the master-cap transition lands at 9–10 slaves and
//!   total throughput tops out near 60 ops/s ⇒ read demand ≈ 170 ms with
//!   the same write/apply demands.
//!
//! Reads cost what their rows-examined say (≈65 rows at size 300, ≈95 at
//! size 600 across the mix) at ≈1.55 ms/row — a defensible blended cost of
//! random index probes on an EBS-backed m1.small. Writes are commit-
//! dominated (fsync ≈ 70 ms); slave applies skip client protocol and fsync
//! (relaxed durability on replicas) and are an order of magnitude cheaper,
//! which is what lets the slave fan-out scale until the master becomes the
//! bottleneck — the paper's central observation.

use amdb_sql::cost::CostModel;

/// The calibrated cost model used by every figure runner.
pub fn paper_cost_model() -> CostModel {
    // The calibrated constants are the crate-wide defaults; this alias keeps
    // the experiment code explicit about where its numbers come from.
    CostModel::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_cloudstone::{build_template, DataSize, MixConfig, OpGenerator};
    use amdb_sim::Rng;
    use amdb_sql::{ForkRole, Session};

    /// Measure the mean demand (ms) of reads / writes / applies for a mix
    /// and data size by executing a few hundred generated operations,
    /// through `Engine::examine` as the cluster costs them.
    fn measure(mix: MixConfig, size: DataSize) -> (f64, f64, f64) {
        let cost = paper_cost_model();
        let mut rng = Rng::new(99);
        let (template, counters) = build_template(size, &mut rng);
        let mut master = template.fork(ForkRole::Master(amdb_sql::BinlogFormat::Statement));
        let mut slave = template.fork(ForkRole::Slave);
        let mut gen = OpGenerator::new(counters, rng.derive("ops"));
        let mut session = Session::new();

        let (mut r_sum, mut r_n, mut w_sum, mut w_n, mut a_sum, mut a_n) =
            (0.0, 0u32, 0.0, 0u32, 0.0, 0u32);
        let mut shipped = amdb_sql::Lsn(0);
        for _ in 0..600 {
            let op = gen.generate(mix);
            let mut demand = 0.0;
            for (sql, params) in &op.statements {
                let res = master.examine(&mut session, sql, params).unwrap();
                demand += cost.statement_demand_us(&res, res.rows_affected > 0);
            }
            match op.class {
                amdb_cloudstone::OpClass::Read => {
                    r_sum += demand / 1e3;
                    r_n += 1;
                }
                amdb_cloudstone::OpClass::Write => {
                    demand += cost.commit_us;
                    w_sum += demand / 1e3;
                    w_n += 1;
                    // apply the new events on the slave and cost them
                    let events: Vec<_> = master.binlog_from(shipped).to_vec();
                    shipped = master.binlog().head();
                    let mut apply = 0.0;
                    for ev in &events {
                        let res = slave.apply_event(ev, 0).unwrap();
                        apply += cost.apply_demand_us(&res);
                    }
                    a_sum += apply / 1e3;
                    a_n += 1;
                }
            }
        }
        (r_sum / r_n as f64, w_sum / w_n as f64, a_sum / a_n as f64)
    }

    #[test]
    fn demands_match_derivation_small() {
        let (r, w, a) = measure(MixConfig::RW_50_50, DataSize::SMALL);
        assert!(
            (85.0..125.0).contains(&r),
            "read demand {r:.1} ms (target ~105)"
        );
        assert!(
            (65.0..110.0).contains(&w),
            "write demand {w:.1} ms (target ~85)"
        );
        assert!(
            (8.0..30.0).contains(&a),
            "apply demand {a:.1} ms (target ~18)"
        );
    }

    #[test]
    fn demands_match_derivation_large() {
        let (r, w, a) = measure(MixConfig::RW_80_20, DataSize::LARGE);
        assert!(
            (125.0..190.0).contains(&r),
            "read demand {r:.1} ms (target ~150-170)"
        );
        assert!((65.0..110.0).contains(&w), "write demand {w:.1} ms");
        assert!((8.0..30.0).contains(&a), "apply demand {a:.1} ms");
    }

    #[test]
    fn larger_data_means_costlier_reads() {
        let (r_small, _, _) = measure(MixConfig::RW_50_50, DataSize::SMALL);
        let (r_large, _, _) = measure(MixConfig::RW_50_50, DataSize::LARGE);
        assert!(
            r_large > r_small * 1.3,
            "size 600 reads ({r_large:.1}) cost more than size 300 ({r_small:.1})"
        );
    }
}

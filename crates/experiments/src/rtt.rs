//! §IV-B.2 in-text measurement: ½ round-trip time between the master's zone
//! and a slave in each placement, "by running ping command every second for
//! a 20-minute period". The paper reports averages of 16, 21, and 173 ms.

use amdb_cloud::net::{NetModel, Region, Zone};
use amdb_core::Placement;
use amdb_obs::metrics::{Summary, Table};
use amdb_sim::Rng;

/// One placement's ping statistics.
#[derive(Debug, Clone)]
pub struct PingResult {
    pub placement: Placement,
    pub label: String,
    /// Half-RTT summary in ms.
    pub half_rtt_ms: Summary,
}

/// Run the ping experiment: one sample per second for `duration_s`.
pub fn run(duration_s: u32, seed: u64) -> Vec<PingResult> {
    let master = Zone::new(Region::UsWest1, 'a');
    let mut net = NetModel::with_defaults(Rng::new(seed).derive("rtt"));
    Placement::PAPER_SET
        .iter()
        .map(|&placement| {
            let slave = placement.slave_zone(master);
            let samples: Vec<f64> = (0..duration_s)
                .map(|_| net.rtt(master, slave).as_millis_f64() / 2.0)
                .collect();
            PingResult {
                placement,
                label: placement.label(master),
                half_rtt_ms: Summary::of(&samples).expect("non-empty, finite delays"),
            }
        })
        .collect()
}

/// Render the paper-comparable table.
pub fn table(results: &[PingResult]) -> Table {
    let mut t = Table::new(
        "½ round-trip time by placement (ping every second, 20 minutes)",
        vec![
            "placement".into(),
            "mean (ms)".into(),
            "p5 (ms)".into(),
            "p95 (ms)".into(),
            "paper (ms)".into(),
        ],
    );
    let paper = [16.0, 21.0, 173.0];
    for (r, p) in results.iter().zip(paper) {
        t.push_row(vec![
            r.label.clone(),
            format!("{:.1}", r.half_rtt_ms.mean),
            format!("{:.1}", r.half_rtt_ms.p5),
            format!("{:.1}", r.half_rtt_ms.p95),
            format!("{p:.0}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_rtts_match_paper() {
        let rs = run(1200, 7);
        assert_eq!(rs.len(), 3);
        let means: Vec<f64> = rs.iter().map(|r| r.half_rtt_ms.mean).collect();
        assert!((means[0] - 16.3).abs() < 0.5, "same zone {:.1}", means[0]);
        assert!((means[1] - 21.3).abs() < 0.5, "diff zone {:.1}", means[1]);
        assert!(
            (means[2] - 173.3).abs() < 3.0,
            "diff region {:.1}",
            means[2]
        );
        assert!(means[0] < means[1] && means[1] < means[2]);
    }

    #[test]
    fn table_contains_all_placements() {
        let t = table(&run(60, 7));
        let r = t.render();
        assert!(r.contains("same zone"));
        assert!(r.contains("different zone"));
        assert!(r.contains("different region"));
    }
}

//! Pins the quick-grid output bytes across sim-core rewrites and `--jobs`
//! counts.
//!
//! The sim-core raw-speed program (slab agenda, hot-path storage, typed
//! cluster events) is only allowed to change wall-clock, never output.
//! These fingerprints were recorded before that program landed; any core
//! change that shifts a single byte of the rendered fig2/fig5 or fig3/fig6
//! quick grids fails here with the old and new hashes side by side.
//!
//! The grids take seconds in release and minutes in debug, so the test is
//! ignored under `debug_assertions`; CI runs it via
//! `cargo test --release -p amdb-experiments --test simcore_fingerprint`.

use amdb_experiments::grid::SweepOptions;
use amdb_experiments::{sweep, Fidelity};

/// FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn render_all(results: &[sweep::PlacementResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.throughput.render());
        out.push('\n');
        out.push_str(&r.delay.render());
        out.push('\n');
    }
    out
}

const FIG2_FIG5_FP: u64 = 0x5529_4b98_a489_afbd;
const FIG3_FIG6_FP: u64 = 0x85d2_c411_7df7_430a;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "quick grids take minutes unoptimized; run with --release"
)]
fn quick_grid_bytes_are_pinned_across_jobs() {
    let grids = [
        (
            "fig2_fig5",
            sweep::SweepSpec::fig2_fig5(Fidelity::Quick),
            FIG2_FIG5_FP,
        ),
        (
            "fig3_fig6",
            sweep::SweepSpec::fig3_fig6(Fidelity::Quick),
            FIG3_FIG6_FP,
        ),
    ];
    for (name, spec, expect) in grids {
        let serial = render_all(&sweep::run_sweep(&spec, &SweepOptions::serial()));
        let got = fnv64(serial.as_bytes());
        assert_eq!(
            got, expect,
            "{name} quick-grid bytes changed: fp {got:016x} != pinned {expect:016x}"
        );
        let parallel = render_all(&sweep::run_sweep(&spec, &SweepOptions::silent(4)));
        assert_eq!(
            serial, parallel,
            "{name} diverges between --jobs 1 and --jobs 4"
        );
    }
}

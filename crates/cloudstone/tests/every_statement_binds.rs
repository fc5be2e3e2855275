//! Every statement text a run issues binds on the loaded schema. Prepare
//! resolves every table and column a statement names and fails on an unknown
//! one even when no row would be touched, so this pins that the bind-time
//! error cannot fire on the paper's traffic.

use amdb_cloudstone::{
    build_template, load_web10, DataSize, MixConfig, OpGenerator, Web10Generator,
};
use amdb_repl::{collect_samples, HeartbeatPlugin};
use amdb_sim::Rng;
use amdb_sql::{Engine, ForkRole, Session};

fn assert_binds(engine: &mut Engine, sql: &str) {
    if let Err(e) = engine.prepare(sql) {
        panic!("{sql}: {e}");
    }
}

#[test]
fn every_statement_a_run_issues_binds() {
    let mut rng = Rng::new(11);
    let (template, counters) = build_template(DataSize { scale: 10 }, &mut rng);

    let mut master = template.fork(ForkRole::Slave);
    let mut gen = OpGenerator::new(counters, rng.derive("ops"));
    for mix in [MixConfig::RW_50_50, MixConfig::RW_80_20] {
        for _ in 0..300 {
            for (sql, _) in gen.generate(mix).statements {
                assert_binds(&mut master, &sql);
            }
        }
    }
    assert_binds(&mut master, &HeartbeatPlugin::new().next_insert().0);
    let mut slave = template.fork(ForkRole::Slave);
    collect_samples(&mut master, &mut slave).expect("the heartbeat SELECT binds");

    // Web10 cells load the bookstore catalog onto forks of the same template.
    let mut web10 = template.fork(ForkRole::Slave);
    let items = 200;
    load_web10(
        &mut web10,
        &mut Session::new(),
        items,
        &mut rng.derive("web10-load"),
    )
    .expect("web10 catalog loads");
    let mut gen = Web10Generator::new(items, rng.derive("web10-ops"));
    for _ in 0..300 {
        for (sql, _) in gen.generate().statements {
            assert_binds(&mut web10, &sql);
        }
    }
}

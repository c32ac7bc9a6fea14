//! The smoke variant of the three in-process workloads by direct call (a
//! unit test cannot re-enter the binary, so `fleet_2proc` is covered by
//! `benchmark --smoke` itself), and the exactness of what is reported as a
//! count.

use crate::catalog;
use crate::probes;
use crate::run::{Ctx, Outcome};
use crate::trace::Tracer;
use crate::workloads;

/// Tests run on parallel threads of one process: each gets a directory of
/// its own, or two servers would share one cache.
fn smoke_ctx(test: &str, seed: u64, trace: bool) -> Ctx {
    let out = std::env::temp_dir().join(format!("benchmark-test-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&out).expect("create the test's output directory");
    Ctx {
        seed,
        seconds: 0.0,
        smoke: true,
        out,
        tracer: Tracer::new(trace),
    }
}

fn smoke(workload: &str, test: &str, seed: u64) -> Outcome {
    let mut ctx = smoke_ctx(test, seed, true);
    let outcome = workloads::run(workload, &mut ctx).expect("a known workload");
    let _ = std::fs::remove_dir_all(&ctx.out);
    for c in &outcome.checks.0 {
        assert!(c.ok, "{workload}: check {} failed: {}", c.name, c.detail);
    }
    assert_eq!(outcome.failed(), 0);
    assert!(outcome.attempted() >= 1);
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        let known = catalog::END_TO_END
            .iter()
            .chain(catalog::PER_LAYER)
            .any(|d| d.name == m.name);
        assert!(known, "{} is not in the catalog", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    for name in ["setup_s", "unit_s", "work_per_s"] {
        let m = outcome
            .end_to_end
            .iter()
            .find(|m| m.name == name)
            .expect(name);
        assert!(m.value > 0.0, "{name} must never read 0");
    }
    assert!(!ctx.tracer.spans().is_empty());
    outcome
}

fn layer(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .per_layer
        .iter()
        .find(|m| m.name == name)
        .expect(name)
        .value
}

#[test]
fn solo_smoke_passes_and_its_counts_are_exact() {
    let a = smoke("solo_n256", "solo-a", 11);
    let b = smoke("solo_n256", "solo-b", 11);
    let c = smoke("solo_n256", "solo-c", 12);
    assert_eq!(a.obs_fnv, b.obs_fnv);
    assert_eq!(
        layer(&a, "core.acceptance").to_bits(),
        layer(&b, "core.acceptance").to_bits()
    );
    assert_ne!(a.obs_fnv, c.obs_fnv);
    assert_ne!(layer(&a, "core.acceptance"), layer(&c, "core.acceptance"));
    assert!(layer(&a, "core.phase_cover") > 0.5);
}

#[test]
fn campaign_smoke_passes_and_its_counts_are_exact() {
    let a = smoke("campaign_crowd", "campaign-a", 11);
    let b = smoke("campaign_crowd", "campaign-b", 11);
    let c = smoke("campaign_crowd", "campaign-c", 12);
    assert_eq!(a.obs_fnv, b.obs_fnv);
    assert_ne!(a.obs_fnv, c.obs_fnv);
    // The modeled device clock is a count of launches, transfers and flops.
    assert_eq!(
        layer(&a, "gpusim.device_s").to_bits(),
        layer(&b, "gpusim.device_s").to_bits()
    );
    assert!(layer(&a, "gpusim.device_s") > 0.0);
    assert_eq!(
        layer(&a, "sched.preemptions"),
        layer(&b, "sched.preemptions")
    );
    assert!(
        layer(&a, "sched.preemptions") > 0.0,
        "every quantum parks an image"
    );
}

#[test]
fn serve_smoke_passes_and_its_counts_are_exact() {
    let a = smoke("serve_warm", "serve-a", 11);
    let b = smoke("serve_warm", "serve-b", 11);
    let c = smoke("serve_warm", "serve-c", 12);
    assert_eq!(a.obs_fnv, b.obs_fnv);
    assert_ne!(a.obs_fnv, c.obs_fnv);
    // 2 cold campaigns of 4 points miss, 20 warm ones hit 4 points each,
    // 2 partial ones hit 2 and miss 2.
    assert_eq!(layer(&a, "serve.cache_hits"), 84.0);
    assert_eq!(layer(&a, "serve.cache_misses"), 12.0);
    assert_eq!(layer(&b, "serve.cache_hits"), 84.0);
}

#[test]
fn probes_emit_every_probe_metric_once() {
    let mut ctx = smoke_ctx("probes", 5, true);
    let metrics = probes::run_all(&mut ctx, &probes::SMOKE);
    let _ = std::fs::remove_dir_all(&ctx.out);
    let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    for m in &metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a probe metric is emitted twice");
    for name in &names {
        assert!(
            catalog::PER_LAYER.iter().any(|d| d.name == *name),
            "{name} is not in the catalog"
        );
    }
    // Everything the catalog lists is either a probe or read by a workload.
    let from_workloads = [
        "core.delayed_update_s",
        "core.stratification_s",
        "core.clustering_s",
        "core.wrapping_s",
        "core.measurement_s",
        "core.phase_cover",
        "core.cluster_cache_hit_ratio",
        "core.acceptance",
        "core.max_wrap_error",
        "core.recovery_events",
        "gpusim.device_s",
        "gpusim.chains_per_device_s",
        "gpusim.leases",
        "gpusim.lease_misses",
        "sched.preemptions",
        "sched.retries",
        "sched.device_quanta",
        "sched.host_quanta",
        "serve.first_point_ms",
        "serve.partial_first_point_ms",
        "serve.warm_submit_ms",
        "serve.warm_submit_tail_ms",
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.cache_hit_ratio",
        "fleet.overhead_ratio",
        "fleet.speedup_2p",
        "fleet.respawns",
        "fleet.kills",
        "bench.spans",
    ];
    for d in catalog::PER_LAYER {
        assert!(
            names.contains(&d.name) || from_workloads.contains(&d.name),
            "{} is listed but nothing measures it",
            d.name
        );
    }
}

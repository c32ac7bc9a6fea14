//! Every metric by name, unit and direction: the definitions
//! `BENCHMARK.json` repeats (a test holds the two together). A result line
//! carries every name of its pass on every workload; a layer a workload
//! never calls reads 0 there.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median; end-to-end only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    e2e(name, unit, better, 0.0)
}

pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("unit_s", "s", "lower", 0.25),
    e2e("work_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

pub const PER_LAYER: &[Def] = &[
    // Probes: the same calls in every traced pass.
    layer("linalg.gemm_gflops_n256", "GFlop/s", "higher"),
    layer("linalg.qr_gflops_n256", "GFlop/s", "higher"),
    layer("linalg.qrp_gflops_n256", "GFlop/s", "higher"),
    layer("linalg.lu_solve_gflops_n256", "GFlop/s", "higher"),
    layer("linalg.scale_gbs_n256", "GB/s", "higher"),
    layer("linalg.col_norms_gbs_n256", "GB/s", "higher"),
    layer("linalg.gemm_gflops_n36", "GFlop/s", "higher"),
    layer("linalg.gemm_batched_gflops_n36_b4", "GFlop/s", "higher"),
    layer("linalg.qrp_batched_gflops_n36_b4", "GFlop/s", "higher"),
    layer("linalg.gemm_call_ns_n16", "ns", "lower"),
    layer("host.triad_gbs", "GB/s", "higher"),
    layer("host.triad_array_mb", "MB", "higher"),
    layer("host.llc_mb", "MB", "higher"),
    layer("host.cores", "count", "higher"),
    layer("core.factory_build_s_n256", "s", "lower"),
    layer("core.greens_eval_s_n256", "s", "lower"),
    layer("core.greens_gemm_frac_n256", "ratio", "higher"),
    layer("core.stratify_prepivot_s_n256", "s", "lower"),
    layer("core.stratify_qrp_s_n256", "s", "lower"),
    layer("core.cluster_build_s_n256", "s", "lower"),
    layer("core.wrap_s_n256", "s", "lower"),
    layer("core.checkpoint_bytes_n256", "B", "lower"),
    layer("core.checkpoint_encode_ms_n256", "ms", "lower"),
    layer("core.resume_ms_n256", "ms", "lower"),
    layer("core.checkpoint_bytes_n36", "B", "lower"),
    layer("core.checkpoint_encode_us_n36", "us", "lower"),
    layer("core.resume_us_n36", "us", "lower"),
    layer("core.crowd_per_walker_ratio_n36_b4", "ratio", "lower"),
    layer("sched.job_overhead_us", "us", "lower"),
    layer("serve.frame_encode_mbs", "MB/s", "higher"),
    layer("serve.frame_decode_mbs", "MB/s", "higher"),
    layer("serve.cache_store_us", "us", "lower"),
    layer("serve.cache_lookup_us", "us", "lower"),
    layer("serve.stats_rtt_us", "us", "lower"),
    layer("serve.connect_us", "us", "lower"),
    layer("fleet.merge_ms", "ms", "lower"),
    layer("fleet.report_encode_us", "us", "lower"),
    layer("fleet.report_bytes", "B", "lower"),
    layer("util.write_atomic_us_64b", "us", "lower"),
    layer("util.write_atomic_us_64k", "us", "lower"),
    layer("util.write_atomic_ms_1m", "ms", "lower"),
    layer("util.crc32_mbs", "MB/s", "higher"),
    // Read at the boundaries of solo_n256's own calls.
    layer("core.delayed_update_s", "s", "lower"),
    layer("core.stratification_s", "s", "lower"),
    layer("core.clustering_s", "s", "lower"),
    layer("core.wrapping_s", "s", "lower"),
    layer("core.measurement_s", "s", "lower"),
    layer("core.phase_cover", "ratio", "higher"),
    layer("core.cluster_cache_hit_ratio", "ratio", "higher"),
    layer("core.acceptance", "ratio", "higher"),
    layer("core.max_wrap_error", "ratio", "lower"),
    layer("core.recovery_events", "count", "lower"),
    // campaign_crowd's SweepReport.
    layer("gpusim.device_s", "s", "lower"),
    layer("gpusim.chains_per_device_s", "1/s", "higher"),
    layer("gpusim.leases", "count", "higher"),
    layer("gpusim.lease_misses", "count", "lower"),
    layer("sched.preemptions", "count", "lower"),
    layer("sched.retries", "count", "lower"),
    layer("sched.device_quanta", "count", "higher"),
    layer("sched.host_quanta", "count", "lower"),
    // serve_warm's client timings and ServerHandle counters.
    layer("serve.first_point_ms", "ms", "lower"),
    layer("serve.partial_first_point_ms", "ms", "lower"),
    layer("serve.warm_submit_ms", "ms", "lower"),
    layer("serve.warm_submit_tail_ms", "ms", "lower"),
    layer("serve.cache_hits", "count", "higher"),
    layer("serve.cache_misses", "count", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    // fleet_2proc's FleetOutcome against its in-process reference.
    layer("fleet.overhead_ratio", "ratio", "lower"),
    layer("fleet.speedup_2p", "ratio", "higher"),
    layer("fleet.respawns", "count", "lower"),
    layer("fleet.kills", "count", "lower"),
    // The trace itself.
    layer("bench.spans", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(section: &Value) -> Vec<(String, String, String, Option<f64>)> {
        section
            .as_arr()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let manifest = manifest();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.to_string(),
                    Some(d.bound),
                )
            })
            .collect();
        assert_eq!(listed(manifest.get("end_to_end").unwrap()), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed(manifest.get("per_layer").unwrap()), layers);

        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
            assert!(d.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}

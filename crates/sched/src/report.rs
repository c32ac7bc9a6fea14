//! The machine-readable result of a sweep campaign.
//!
//! A [`SweepReport`] has two layers with different guarantees:
//!
//! - the **observables** layer ([`SweepReport::observables_json`]) is a
//!   pure function of (grid, seeds) — byte-identical across worker counts,
//!   device-pool sizes, preemption schedules and scripted one-shot fault
//!   plans. CI diffs it between scheduling configurations.
//! - the **schedule** layer (the rest of [`SweepReport::to_json`]) is
//!   diagnostics: placements, preemptions, retries, recovery events, wall
//!   time. It legitimately varies run to run.
//!
//! JSON is emitted by hand (the workspace has no serde); floats use Rust's
//! shortest-roundtrip `Display`, so equal bits render as equal bytes, and
//! non-finite values render as `null` to stay inside the JSON grammar.

use dqmc::{JackknifeScalars, RecoveryTallies};
use util::codec::{ByteReader, ByteWriter, CodecError};

/// Pooled results for one grid point.
#[derive(Clone, Debug)]
pub struct PointSummary {
    /// Flat point index (u-major).
    pub point: usize,
    /// On-site repulsion.
    pub u: f64,
    /// Inverse temperature.
    pub beta: f64,
    /// Time slices.
    pub slices: usize,
    /// Chains that completed.
    pub chains_ok: usize,
    /// Chains that exhausted their retry budget.
    pub chains_failed: usize,
    /// Complete measurement bins pooled across chains.
    pub bin_count: usize,
    /// Jackknifed scalar observables; `None` when every chain failed.
    pub scalars: Option<JackknifeScalars>,
    /// Mean Metropolis acceptance over completed chains.
    pub mean_acceptance: f64,
    /// Largest wrap-vs-recompute divergence any chain saw.
    pub max_wrap_error: f64,
    /// Recovery-ladder incidents summed over chains (schedule-dependent:
    /// faults only fire on device placements).
    pub recovery_events: u64,
    /// Preemptions suffered by this point's jobs.
    pub preemptions: u64,
    /// Scheduling quanta run on leased devices.
    pub device_quanta: u64,
    /// Scheduling quanta run on the host backend.
    pub host_quanta: u64,
    /// Modeled device-seconds consumed by this point's jobs (the simulated
    /// accelerator clock — the schedule-layer throughput currency).
    pub device_seconds: f64,
}

/// The full campaign result.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Campaign base seed.
    pub seed: u64,
    /// Chains per point.
    pub chains: usize,
    /// Crowd size B: chains batched per job (1 = solo jobs). Lives in the
    /// schedule layer — crowding may only change cost, never observables.
    pub crowd: usize,
    /// Warmup sweeps per chain.
    pub warmup: usize,
    /// Measurement sweeps per chain.
    pub sweeps: usize,
    /// Per-point pooled results, in point order.
    pub points: Vec<PointSummary>,
    /// Jobs scheduled.
    pub total_jobs: usize,
    /// Jobs that failed permanently.
    pub failed_jobs: usize,
    /// Total preemptions (checkpoint-park-requeue cycles).
    pub preemptions: u64,
    /// Scheduler-level job restarts after panics.
    pub retries: u64,
    /// Quanta run on devices, campaign-wide.
    pub device_quanta: u64,
    /// Quanta run on the host, campaign-wide.
    pub host_quanta: u64,
    /// Modeled device-seconds consumed campaign-wide. Wall clock measures
    /// the host running the simulation *of* the device; this measures the
    /// device being simulated — the honest axis for batching speedups.
    pub device_seconds: f64,
    /// Device leases granted by the pool.
    pub leases_granted: u64,
    /// Lease requests that fell back to the host.
    pub lease_misses: u64,
    /// Circuit-breaker openings (first-time and re-openings).
    pub quarantines: u64,
    /// Probation probes granted to quarantined slots.
    pub probes: u64,
    /// Quarantined slots re-admitted after a clean probe.
    pub readmissions: u64,
    /// Lease requests that skipped a quarantined slot.
    pub quarantine_skips: u64,
    /// Soft-deadline cooperative parks (hung, fail-slow or sick
    /// placements).
    pub soft_parks: u64,
    /// Panics caught by the worker backstop. Classified errors return
    /// `Err` instead of unwinding, so this stays 0 under scripted storms.
    pub panics_caught: u64,
    /// Recovery-ladder actions pooled over completed chains, broken down
    /// by classification.
    pub recovery_tallies: RecoveryTallies,
    /// Worker threads used.
    pub workers: usize,
    /// Device-pool slots.
    pub devices: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
}

/// Shortest-roundtrip float, `null` when non-finite (NaN/inf are not JSON).
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn jpair((v, e): (f64, f64)) -> String {
    format!("{{\"value\":{},\"err\":{}}}", jnum(v), jnum(e))
}

/// Assembles the deterministic observables section from per-point
/// summaries in point order — shared by [`SweepReport::observables_json`]
/// and by the result-cache service, which reassembles campaigns from a
/// mix of cached and freshly computed points. One emitter means a served
/// response can be compared byte-for-byte against an in-process run.
pub fn observables_json_for(
    seed: u64,
    chains: usize,
    warmup: usize,
    sweeps: usize,
    points: &[PointSummary],
) -> String {
    let points: Vec<String> = points.iter().map(|p| p.observables_json()).collect();
    format!(
        "{{\"seed\":{seed},\"chains\":{chains},\"warmup\":{warmup},\"sweeps\":{sweeps},\
         \"points\":[{}]}}",
        points.join(",")
    )
}

impl PointSummary {
    /// This point's fragment of the observables section — the payload a
    /// service streams to clients as the point completes.
    pub fn observables_json(&self) -> String {
        let mut s = format!(
            "{{\"point\":{},\"u\":{},\"beta\":{},\"slices\":{},\"chains\":{},\"bins\":{}",
            self.point,
            jnum(self.u),
            jnum(self.beta),
            self.slices,
            self.chains_ok,
            self.bin_count
        );
        match &self.scalars {
            Some(sc) => {
                s.push_str(&format!(
                    ",\"sign\":{},\"density\":{},\"double_occ\":{},\"kinetic\":{},\
                     \"potential\":{},\"saf\":{}",
                    jpair(sc.sign),
                    jpair(sc.density),
                    jpair(sc.double_occ),
                    jpair(sc.kinetic),
                    jpair(sc.potential),
                    jpair(sc.saf),
                ));
            }
            None => s.push_str(",\"failed\":true"),
        }
        s.push('}');
        s
    }

    /// Serialises the observables-layer fields (the pure function of
    /// (grid, seeds)) for a content-addressed result-cache entry. The
    /// schedule-layer fields — acceptance, wrap error, recovery and quanta
    /// counters — are *deliberately excluded*: they describe how one
    /// particular run was scheduled, and a cache replay has no schedule.
    pub fn encode_observables(&self, w: &mut ByteWriter) {
        w.put_u64(self.point as u64);
        w.put_f64(self.u);
        w.put_f64(self.beta);
        w.put_u64(self.slices as u64);
        w.put_u64(self.chains_ok as u64);
        w.put_u64(self.chains_failed as u64);
        w.put_u64(self.bin_count as u64);
        w.put_bool(self.scalars.is_some());
        if let Some(sc) = &self.scalars {
            for (v, e) in [
                sc.sign,
                sc.density,
                sc.double_occ,
                sc.kinetic,
                sc.potential,
                sc.saf,
            ] {
                w.put_f64(v);
                w.put_f64(e);
            }
        }
    }

    /// Fewest bytes [`PointSummary::encode_observables`] writes (a point
    /// with no scalars): what a decoder checks a fragment count against
    /// before it reserves for that many summaries.
    pub const MIN_ENCODED_LEN: usize = 7 * 8 + 1;

    /// Decodes a summary written by [`PointSummary::encode_observables`].
    /// Schedule-layer fields come back zeroed — a cache hit never claims
    /// to have a schedule.
    pub fn decode_observables(r: &mut ByteReader<'_>) -> Result<PointSummary, CodecError> {
        let point = r.get_u64()? as usize;
        let u = r.get_f64()?;
        let beta = r.get_f64()?;
        let slices = r.get_u64()? as usize;
        let chains_ok = r.get_u64()? as usize;
        let chains_failed = r.get_u64()? as usize;
        let bin_count = r.get_u64()? as usize;
        let scalars = if r.get_bool("scalars presence")? {
            let mut pairs = [(0.0f64, 0.0f64); 6];
            for p in pairs.iter_mut() {
                *p = (r.get_f64()?, r.get_f64()?);
            }
            Some(JackknifeScalars {
                sign: pairs[0],
                density: pairs[1],
                double_occ: pairs[2],
                kinetic: pairs[3],
                potential: pairs[4],
                saf: pairs[5],
            })
        } else {
            None
        };
        Ok(PointSummary {
            point,
            u,
            beta,
            slices,
            chains_ok,
            chains_failed,
            bin_count,
            scalars,
            mean_acceptance: 0.0,
            max_wrap_error: 0.0,
            recovery_events: 0,
            preemptions: 0,
            device_quanta: 0,
            host_quanta: 0,
            device_seconds: 0.0,
        })
    }

    fn schedule_json(&self) -> String {
        format!(
            "{{\"point\":{},\"acceptance\":{},\"max_wrap_error\":{},\"recovery_events\":{},\
             \"failed_chains\":{},\"preemptions\":{},\"device_quanta\":{},\"host_quanta\":{},\
             \"device_seconds\":{}}}",
            self.point,
            jnum(self.mean_acceptance),
            jnum(self.max_wrap_error),
            self.recovery_events,
            self.chains_failed,
            self.preemptions,
            self.device_quanta,
            self.host_quanta,
            jnum(self.device_seconds)
        )
    }
}

impl SweepReport {
    /// The deterministic physics section: byte-identical for a fixed
    /// (grid, seeds) no matter how the sweep was scheduled. This is the
    /// string the determinism tests and the CI smoke job compare.
    pub fn observables_json(&self) -> String {
        observables_json_for(
            self.seed,
            self.chains,
            self.warmup,
            self.sweeps,
            &self.points,
        )
    }

    /// The full report: observables plus schedule diagnostics. The health
    /// and recovery counters live *only* here — the observables section
    /// must not move when the schedule gets chaotic.
    pub fn to_json(&self) -> String {
        let sched: Vec<String> = self.points.iter().map(|p| p.schedule_json()).collect();
        let t = &self.recovery_tallies;
        format!(
            "{{\"observables\":{},\"schedule\":{{\"workers\":{},\"devices\":{},\"crowd\":{},\
             \"total_jobs\":{},\"failed_jobs\":{},\"preemptions\":{},\"retries\":{},\
             \"device_quanta\":{},\"host_quanta\":{},\"device_seconds\":{},\"leases_granted\":{},\
             \"lease_misses\":{},\"health\":{{\"quarantines\":{},\"probes\":{},\
             \"readmissions\":{},\"quarantine_skips\":{},\"soft_parks\":{},\
             \"panics_caught\":{}}},\
             \"recovery\":{{\"retries\":{},\"shrinks\":{},\"fallbacks\":{},\
             \"repairs\":{},\"escalations\":{}}},\
             \"wall_seconds\":{},\"points\":[{}]}}}}",
            self.observables_json(),
            self.workers,
            self.devices,
            self.crowd,
            self.total_jobs,
            self.failed_jobs,
            self.preemptions,
            self.retries,
            self.device_quanta,
            self.host_quanta,
            jnum(self.device_seconds),
            self.leases_granted,
            self.lease_misses,
            self.quarantines,
            self.probes,
            self.readmissions,
            self.quarantine_skips,
            self.soft_parks,
            self.panics_caught,
            t.retries,
            t.shrinks,
            t.fallbacks,
            t.repairs,
            t.escalations,
            jnum(self.wall_seconds),
            sched.join(",")
        )
    }

    /// A compact human summary: one line per point.
    pub fn human_summary(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            match &p.scalars {
                Some(sc) => out.push_str(&format!(
                    "point {:>3}  U={:<6} beta={:<6} | density {:.4} ± {:.4} | \
                     docc {:.4} ± {:.4} | S_AF {:.4} ± {:.4} | sign {:.3}\n",
                    p.point,
                    p.u,
                    p.beta,
                    sc.density.0,
                    sc.density.1,
                    sc.double_occ.0,
                    sc.double_occ.1,
                    sc.saf.0,
                    sc.saf.1,
                    sc.sign.0,
                )),
                None => out.push_str(&format!(
                    "point {:>3}  U={:<6} beta={:<6} | FAILED ({} chains)\n",
                    p.point, p.u, p.beta, p.chains_failed
                )),
            }
        }
        out.push_str(&format!(
            "jobs {}/{} ok | preemptions {} | retries {} | quanta dev/host {}/{} | \
             device {:.3}s | lease miss {}/{} | {:.2}s with {} workers, {} devices, crowd {}\n",
            self.total_jobs - self.failed_jobs,
            self.total_jobs,
            self.preemptions,
            self.retries,
            self.device_quanta,
            self.host_quanta,
            self.device_seconds,
            self.lease_misses,
            self.leases_granted + self.lease_misses,
            self.wall_seconds,
            self.workers,
            self.devices,
            self.crowd,
        ));
        let t = &self.recovery_tallies;
        out.push_str(&format!(
            "health: quarantines {} ({} readmitted, {} probes, {} skips) | \
             soft parks {} | panics caught {}\n\
             recovery: {} retries, {} shrinks, {} fallbacks, {} repairs, {} escalations\n",
            self.quarantines,
            self.readmissions,
            self.probes,
            self.quarantine_skips,
            self.soft_parks,
            self.panics_caught,
            t.retries,
            t.shrinks,
            t.fallbacks,
            t.repairs,
            t.escalations,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepReport {
        SweepReport {
            seed: 7,
            chains: 2,
            crowd: 1,
            warmup: 4,
            sweeps: 8,
            points: vec![PointSummary {
                point: 0,
                u: 4.0,
                beta: 2.0,
                slices: 16,
                chains_ok: 2,
                chains_failed: 0,
                bin_count: 8,
                scalars: Some(JackknifeScalars {
                    sign: (1.0, 0.0),
                    density: (1.0, 0.01),
                    double_occ: (0.2, 0.005),
                    kinetic: (-1.2, 0.02),
                    potential: (0.8, 0.02),
                    saf: (1.5, 0.1),
                }),
                mean_acceptance: 0.45,
                max_wrap_error: 1e-12,
                recovery_events: 1,
                preemptions: 3,
                device_quanta: 5,
                host_quanta: 2,
                device_seconds: 0.25,
            }],
            total_jobs: 2,
            failed_jobs: 0,
            preemptions: 3,
            retries: 0,
            device_quanta: 5,
            host_quanta: 2,
            device_seconds: 0.25,
            leases_granted: 5,
            lease_misses: 2,
            quarantines: 2,
            probes: 3,
            readmissions: 1,
            quarantine_skips: 4,
            soft_parks: 2,
            panics_caught: 0,
            recovery_tallies: RecoveryTallies {
                retries: 2,
                shrinks: 1,
                fallbacks: 1,
                repairs: 0,
                escalations: 3,
            },
            workers: 2,
            devices: 1,
            wall_seconds: 0.5,
        }
    }

    #[test]
    fn observables_json_is_valid_and_excludes_schedule() {
        let j = sample().observables_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"double_occ\":{\"value\":0.2,\"err\":0.005}"));
        // Schedule-dependent fields must NOT leak into the deterministic
        // section.
        assert!(!j.contains("preemptions"));
        assert!(!j.contains("recovery_events"));
        assert!(!j.contains("wall"));
        assert!(!j.contains("quanta"));
        assert!(!j.contains("device_seconds"));
        assert!(!j.contains("crowd"));
    }

    #[test]
    fn full_json_nests_both_sections() {
        let j = sample().to_json();
        assert!(j.contains("\"observables\":{"));
        assert!(j.contains("\"schedule\":{"));
        assert!(j.contains("\"preemptions\":3"));
        assert!(j.contains("\"lease_misses\":2"));
    }

    #[test]
    fn non_finite_values_render_as_null() {
        let mut r = sample();
        r.points[0].scalars = Some(JackknifeScalars {
            sign: (f64::NAN, 0.0),
            density: (f64::INFINITY, 0.0),
            double_occ: (0.0, 0.0),
            kinetic: (0.0, 0.0),
            potential: (0.0, 0.0),
            saf: (0.0, 0.0),
        });
        let j = r.observables_json();
        assert!(j.contains("\"sign\":{\"value\":null"));
        assert!(j.contains("\"density\":{\"value\":null"));
        assert!(!j.contains("NaN") && !j.contains("inf"));
    }

    #[test]
    fn failed_points_are_marked() {
        let mut r = sample();
        r.points[0].scalars = None;
        r.points[0].chains_failed = 2;
        assert!(r.observables_json().contains("\"failed\":true"));
        assert!(r.human_summary().contains("FAILED"));
    }

    #[test]
    fn human_summary_mentions_throughput_counters() {
        let s = sample().human_summary();
        assert!(s.contains("jobs 2/2 ok"));
        assert!(s.contains("2 workers, 1 devices"));
        assert!(s.contains("quarantines 2 (1 readmitted, 3 probes, 4 skips)"));
        assert!(s.contains("3 escalations"));
    }

    #[test]
    fn point_observables_codec_round_trips_bit_exactly() {
        let p = sample().points[0].clone();
        let mut w = ByteWriter::new();
        p.encode_observables(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let q = PointSummary::decode_observables(&mut r).expect("round trip");
        assert!(r.is_exhausted(), "decoder must consume the whole payload");
        // The observables fragment — the byte contract — is identical...
        assert_eq!(p.observables_json(), q.observables_json());
        // ...while the schedule layer is zeroed, not resurrected.
        assert_eq!(q.recovery_events, 0);
        assert_eq!(q.preemptions, 0);
        assert_eq!(q.device_seconds, 0.0);
    }

    #[test]
    fn point_observables_decoder_rejects_bad_flag_and_truncation() {
        let p = sample().points[0].clone();
        let mut w = ByteWriter::new();
        p.encode_observables(&mut w);
        let mut bytes = w.into_bytes();
        // Truncated payload.
        let cut = bytes.len() - 3;
        assert!(PointSummary::decode_observables(&mut ByteReader::new(&bytes[..cut])).is_err());
        // Scalars-presence flag outside {0, 1}.
        bytes[7 * 8] = 2;
        assert!(matches!(
            PointSummary::decode_observables(&mut ByteReader::new(&bytes)),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn shared_assembler_matches_report_emitter() {
        let r = sample();
        assert_eq!(
            r.observables_json(),
            observables_json_for(r.seed, r.chains, r.warmup, r.sweeps, &r.points)
        );
    }

    #[test]
    fn health_counters_live_only_in_the_schedule_section() {
        let r = sample();
        let full = r.to_json();
        assert!(full.contains("\"health\":{\"quarantines\":2,\"probes\":3,\"readmissions\":1"));
        assert!(full.contains("\"quarantine_skips\":4,\"soft_parks\":2,\"panics_caught\":0"));
        assert!(full.contains("\"recovery\":{\"retries\":2,\"shrinks\":1,\"fallbacks\":1"));
        // The deterministic observables section must not grow new keys:
        // chaos may reshape the schedule, never the physics bytes.
        let obs = r.observables_json();
        for key in [
            "quarantine",
            "probe",
            "readmission",
            "soft_park",
            "panics",
            "escalation",
            "health",
        ] {
            assert!(!obs.contains(key), "observables leaked schedule key {key}");
        }
    }
}

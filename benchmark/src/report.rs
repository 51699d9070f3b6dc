//! The names every later performance claim uses: workloads, end-to-end
//! metrics with their regression bounds, per-layer metrics. The root
//! `BENCHMARK.json` is generated from these tables (`--manifest`), and a
//! self-test fails if the two drift apart.

use crate::json::quote;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mem-read-heavy",
        why: "The paper's own claim: snapshot reads beside a writer, in memory. vm, ftree, plm and core::session do all the work; wal and net do none.",
    },
    Workload {
        name: "durable-commit",
        why: "The durable write path: core::durable, wal and the disk's fdatasync dominate a commit; tree and arena work is a few us of it, so an ftree or plm speed-up predicts no change.",
    },
    Workload {
        name: "net-paced",
        why: "Open loop far below capacity: the server's idle sleep and wake set the median, and a fix that buys latency by spinning shows as the server's cpu_us_per_op. Engine gains predict no change.",
    },
    Workload {
        name: "net-saturated",
        why: "Closed pipelined loop: the poll loop never idles, so requests/s is one over CPU per request. Batching and syscall work shows here and not in net-paced.",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Measured with tracing off. "op" is every operation the workload
/// completes and "write" those of them that mutate, so that each metric
/// is a measured, non-zero number on every workload (README.md says what
/// they are on each).
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("write_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("op_p90_us", "us", "lower", 0.25),
    e2e("write_p50_us", "us", "lower", 0.25),
    e2e("write_p90_us", "us", "lower", 0.25),
    e2e("cpu_us_per_op", "us", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Measured in the traced run. README.md says how each is taken and
/// which end-to-end metric it should move on which workload. A workload
/// reports the ones its layers take part in; the rest are not applicable
/// there.
pub const PER_LAYER: [Metric; 63] = [
    layer("plm.alloc_collect_pair_ns", "ns", "lower"),
    layer("plm.nodes_alloc_per_write", "count", "lower"),
    layer("plm.nodes_freed_per_write", "count", "higher"),
    layer("plm.live_nodes_max", "count", "lower"),
    layer("vm.acquire_ns", "ns", "lower"),
    layer("vm.set_ns", "ns", "lower"),
    layer("vm.release_ns", "ns", "lower"),
    layer("vm.live_versions_max", "count", "lower"),
    layer("core.txn_abort_share", "ratio", "lower"),
    layer("core.read_txn_self_ns", "ns", "lower"),
    layer("core.write_txn_self_ns", "ns", "lower"),
    layer("core.pool_acquire_ns", "ns", "lower"),
    layer("ftree.get_ns", "ns", "lower"),
    layer("ftree.range_sum_ns", "ns", "lower"),
    layer("ftree.update_ns", "ns", "lower"),
    layer("durable.commit_self_us", "us", "lower"),
    layer("durable.ack_wait_us", "us", "lower"),
    layer("durable.group_size_mean", "count", "higher"),
    layer("durable.flush_us_mean", "us", "lower"),
    layer("durable.blocked_enqueues", "count", "lower"),
    layer("durable.checkpoints", "count", "lower"),
    layer("durable.checkpoint_ms_p50", "ms", "lower"),
    layer("durable.recover_ms", "ms", "lower"),
    layer("durable.replayed_batches", "count", "lower"),
    layer("storage.append_us_p50", "us", "lower"),
    layer("storage.sync_us_p50", "us", "lower"),
    layer("storage.sync_us_p99", "us", "lower"),
    layer("storage.appends_per_commit", "count", "lower"),
    layer("storage.syncs_per_commit", "count", "lower"),
    layer("storage.calls_per_commit", "count", "lower"),
    layer("storage.bytes_per_commit", "bytes", "lower"),
    layer("wal.encode_frame_ns", "ns", "lower"),
    layer("wal.final_bytes", "bytes", "lower"),
    layer("wal.bytes_per_user_byte", "ratio", "lower"),
    layer("net.codec_ns", "ns", "lower"),
    layer("net.engine_op_ns", "ns", "lower"),
    layer("net.rtt_p50_us", "us", "lower"),
    layer("net.wire_self_us", "us", "lower"),
    layer("net.client_send_us", "us", "lower"),
    layer("net.client_recv_us", "us", "lower"),
    layer("net.admission_wait_ns_p50", "ns", "lower"),
    layer("net.admission_wait_ns_p99", "ns", "lower"),
    layer("net.max_queue_depth", "count", "lower"),
    layer("net.shed", "count", "lower"),
    layer("net.deadline_expired", "count", "lower"),
    layer("net.fifo_violations", "count", "lower"),
    layer("net.proto_errors", "count", "lower"),
    layer("net.server_cpu_us_per_req", "us", "lower"),
    layer("net.gen_late_us_p95", "us", "lower"),
    layer("net.gen_late_us_p99", "us", "lower"),
    layer("share.plm_est", "ratio", "lower"),
    layer("share.vm_est", "ratio", "lower"),
    layer("share.ftree", "ratio", "lower"),
    layer("share.core", "ratio", "lower"),
    layer("share.durable", "ratio", "lower"),
    layer("share.storage", "ratio", "lower"),
    layer("share.net", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("failed_share", "ratio", "lower"),
    layer("peak_rss_mb", "MB", "lower"),
    layer("op_p99_us", "us", "lower"),
    layer("write_p99_us", "us", "lower"),
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u32 = 10;

/// The text of the root `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    s += &format!(
        "  \"workloads\": {},\n",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
                .collect()
        )
    );
    let metric = |m: &Metric, bounded: bool| {
        let mut row = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            quote(m.name),
            quote(m.unit),
            quote(m.better)
        );
        if bounded {
            row += &format!(", \"bound\": {}", m.bound);
        }
        row + "}"
    };
    s += &format!(
        "  \"end_to_end\": {},\n",
        rows(END_TO_END.iter().map(|m| metric(m, true)).collect())
    );
    s += &format!(
        "  \"per_layer\": {}\n",
        rows(PER_LAYER.iter().map(|m| metric(m, false)).collect())
    );
    s + "}\n"
}

/// What one run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in registry order; `None` where the workload does
    /// not exercise what the metric measures.
    pub metrics: Vec<(&'static str, Option<f64>)>,
}

impl RunResult {
    /// The one-line JSON object a run prints last.
    pub fn to_json(&self, registry: &[Metric]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = registry
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or("", |m| m.unit);
                // The PR contract wants a number for every declared
                // metric, so "not applicable" (and what JSON cannot
                // write, NaN and infinity) reads 0; the table printed
                // above the line says n/a.
                let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(PER_LAYER.len() <= 128 && manifest().len() < 64 * 1024);
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh --manifest`"
        );
        let parsed = parse(&committed).unwrap();
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn the_result_line_parses_and_names_every_declared_metric() {
        for registry in [&END_TO_END[..], &PER_LAYER[..]] {
            let result = RunResult {
                correct: true,
                attempted: 10,
                failed: 0,
                metrics: registry
                    .iter()
                    .map(|m| (m.name, Some(1.5)))
                    .chain([("x", Some(f64::NAN)), ("y", None)])
                    .collect(),
            };
            let line = result.to_json(registry);
            assert!(!line.contains('\n'));
            let v = parse(&line).unwrap();
            assert_eq!(v.get("correct"), Some(&crate::json::Json::Bool(true)));
            assert_eq!(v.get("attempted").unwrap().as_f64(), Some(10.0));
            let metrics = v.get("metrics").unwrap();
            for m in registry {
                let got = metrics
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{} missing", m.name));
                assert_eq!(got.get("value").unwrap().as_f64(), Some(1.5));
                assert_eq!(got.get("unit").unwrap().as_str(), Some(m.unit));
            }
            for not_a_number in ["x", "y"] {
                let got = metrics.get(not_a_number).unwrap();
                assert_eq!(got.get("value").unwrap().as_f64(), Some(0.0));
            }
        }
    }
}

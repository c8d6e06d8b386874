//! The benchmark's result: metrics by name and unit, the output-check
//! verdict, and the one-line JSON the last line of stdout carries.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with units, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_ns_per_msg", "ns"),
    ("msgs_per_s", "1/s"),
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p99_us", "us"),
    ("stall_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units, in print order. A
/// workload that bypasses a layer reports zero for it.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sim.self_ns_per_event", "ns"),
    ("sim.events_per_msg", "count"),
    ("sim_cluster.self_ns_per_msg", "ns"),
    ("node.ns_per_msg", "ns"),
    ("node.calls_per_msg", "count"),
    ("node.allocs_per_msg", "count"),
    ("rrp.ns_per_msg", "ns"),
    ("rrp.ns_per_frame", "ns"),
    ("rrp.copies_per_frame", "count"),
    ("rrp.tokens_buffered", "count"),
    ("rrp.tokens_timer_released", "count"),
    ("rrp.detect_ms", "ms"),
    ("srp.ns_per_msg", "ns"),
    ("srp.msgs_per_frame", "count"),
    ("srp.tokens_per_msg", "count"),
    ("srp.retransmits_per_msg", "count"),
    ("srp.token_retransmits", "count"),
    ("srp.gathers", "count"),
    ("wire.frames_per_msg", "count"),
    ("wire.bytes_per_msg", "B"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.encode_ns_per_frame", "ns"),
    ("runtime.driver_cpu_ns_per_msg", "ns"),
    ("runtime.allocs_per_msg", "count"),
    ("runtime.idle_frac", "ratio"),
    ("runtime.latency_p50_us", "us"),
    ("runtime.latency_p99_us", "us"),
    ("transport.reader_cpu_ns_per_msg", "ns"),
    ("transport.syscalls_per_datagram", "count"),
    ("transport.datagrams_per_msg", "count"),
    ("transport.recv_batch_len", "count"),
    ("transport.send_ns_per_datagram", "ns"),
    ("ring_paxos.ns_per_msg", "ns"),
    ("ring_paxos.frames_per_msg", "count"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.ledger_sum_frac", "ratio"),
    ("bench.replay_slowdown", "ratio"),
    ("bench.host_slowdown", "ratio"),
];

/// Protocol counters summed over a cluster's Totem engines, read
/// through the `SrpStats` and `RrpStats` accessors.
#[derive(Debug, Default)]
pub struct ProtocolCounters {
    packets_sent: u64,
    retransmissions: u64,
    tokens_handled: u64,
    token_retransmits: u64,
    gathers: u64,
    copies_sent: u64,
    tokens_buffered: u64,
    tokens_timer_released: u64,
}

impl ProtocolCounters {
    /// Adds one engine's counters.
    pub fn add(&mut self, node: &totem_cluster::TotemNode) {
        let s = node.srp().stats();
        self.packets_sent += s.packets_sent;
        self.retransmissions += s.retransmissions;
        self.tokens_handled += s.tokens_handled;
        self.token_retransmits += s.token_retransmits;
        self.gathers += s.gathers;
        let r = node.rrp().stats();
        self.copies_sent += r.message_copies_sent + r.token_copies_sent;
        self.tokens_buffered += r.tokens_buffered;
        self.tokens_timer_released += r.tokens_timer_released;
    }

    /// Records the counter-based `srp.*` and `rrp.*` metrics over `msgs`
    /// distinct messages.
    pub fn report(&self, r: &mut Report, msgs: f64) {
        let frames = self.packets_sent + self.retransmissions + self.tokens_handled;
        r.metric("rrp.copies_per_frame", self.copies_sent as f64 / frames.max(1) as f64);
        r.metric("rrp.tokens_buffered", self.tokens_buffered as f64);
        r.metric("rrp.tokens_timer_released", self.tokens_timer_released as f64);
        if self.packets_sent > 0 {
            r.metric("srp.msgs_per_frame", msgs / self.packets_sent as f64);
        }
        r.metric("srp.tokens_per_msg", self.tokens_handled as f64 / msgs);
        r.metric("srp.retransmits_per_msg", self.retransmissions as f64 / msgs);
        r.metric("srp.token_retransmits", self.token_retransmits as f64);
        r.metric("srp.gathers", self.gathers as f64);
    }
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Messages whose delivery was checked.
    pub attempted: u64,
    /// Messages not delivered exactly once, in the agreed order, at
    /// every live node.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why a check failed, and other human-readable notes.
    pub notes: Vec<String>,
}

impl Report {
    /// A passing report with no metrics yet.
    pub fn new() -> Self {
        Report { correct: true, ..Report::default() }
    }

    /// Records a metric's value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Fails the run with `why`.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(why.into());
    }

    /// Records a check: fails the run with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// The human-readable table followed by the JSON line, listing
    /// every metric of `table`. An end-to-end metric that was not
    /// measured fails the run; an unmeasured per-layer metric reads 0.
    pub fn render(&mut self, workload: &str, table: &[(&'static str, &'static str)]) -> String {
        let end_to_end = table == END_TO_END;
        let mut rows = Vec::new();
        for &(name, unit) in table {
            let value =
                self.metrics.get(name).copied().unwrap_or(if end_to_end { f64::NAN } else { 0.0 });
            self.check(value.is_finite(), || format!("{name} could not be measured"));
            rows.push((name, value, unit));
        }
        let mut s = String::new();
        for note in &self.notes {
            let _ = writeln!(s, "# {note}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "# {workload}: correct={} attempted={} failed={} failed_frac={failed_frac}",
            self.correct, self.attempted, self.failed
        );
        for (name, value, unit) in &rows {
            let _ = writeln!(s, "{name:<34} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = rows
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        s
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured
/// reads as -1 (and the run is already marked incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_json_object_and_lists_every_metric() {
        let mut r = Report::new();
        r.attempted = 10;
        for (name, _) in END_TO_END {
            r.metric(name, 2.5);
        }
        let out = r.render("w", &END_TO_END);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}, "));
        assert_eq!(last.matches("\"value\"").count(), END_TO_END.len());
        assert!(r.correct);
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::new();
        r.metric("setup_s", 1.0);
        let out = r.render("w", &END_TO_END);
        assert!(!r.correct);
        assert!(out.lines().last().unwrap().contains("\"wall_ns_per_msg\": {\"value\": -1"));
        let mut r = Report::new();
        r.render("w", &PER_LAYER);
        assert!(r.correct, "per-layer metrics of bypassed layers read zero");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches("\"unit\"").count(), END_TO_END.len() + PER_LAYER.len());
    }
}

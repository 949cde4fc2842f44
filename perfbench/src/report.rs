//! What one run prints: a readable metric table, one JSON record stamped with
//! the host, and the final JSON result line.

use crate::host::HostStamp;
use crate::stats::{Tally, Windows};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub host: HostStamp,
    /// Fleet shard threads (0 for the single-drone workloads).
    pub fleet_shards: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, one entry per failed check.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Figures printed with the record but not part of the result line.
    pub figures: Vec<Metric>,
    /// Sample counts behind the reported statistics, e.g. the number of
    /// latency samples behind a percentile.
    pub samples: Vec<(String, u64)>,
    /// Free-form remarks printed with the table (skipped legs and the like).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Self {
        Report {
            workload,
            seed,
            trace,
            host: HostStamp::probe(),
            fleet_shards: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            figures: Vec::new(),
            samples: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.errors.push(format!("{name} is not finite"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a statistic that may be missing (too few samples): a missing
    /// value is a failed check, never a made-up number.
    pub fn required(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(value) => self.metric(name, value, unit),
            None => self
                .errors
                .push(format!("{name}: not enough samples to report it")),
        }
    }

    /// Records an ungated figure; a missing one is printed as absent.
    pub fn figure(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(value) => self.figures.push(Metric {
                name: name.into(),
                value,
                unit,
            }),
            None => self.notes.push(format!("{name}: no samples")),
        }
    }

    /// Picks the tally the timing metrics come from (see
    /// [`Windows::measured`]) and records how many windows it covers.
    pub fn timed_windows<'a>(&mut self, windows: &'a Windows) -> &'a Tally {
        let (measured, clean) = windows.measured();
        self.samples("timing_windows", windows.count as usize);
        self.samples("timing_windows_with_steal", windows.disturbed as usize);
        if !clean && windows.disturbed > 0 {
            self.notes
                .push("too few steal-free samples for one block: timing covers every window".into());
        }
        measured
    }

    /// Reports `latency_mean_us` and `latency_p90_us` (the median of the
    /// per-block p90s, see [`crate::stats::BlockedPercentile`]), prints the
    /// whole run's p50 and p99 as ungated figures, and notes the quartiles.
    pub fn latency(&mut self, what: &str, tally: &Tally) {
        let histogram = &tally.latency;
        if let (Some(q1), Some(q3)) = (histogram.percentile_us(25.0), histogram.percentile_us(75.0))
        {
            self.notes
                .push(format!("{what} quartiles: {q1:.1} / {q3:.1} us"));
        }
        self.required("latency_mean_us", tally.mean_us(), "us");
        self.quartiles_note(&format!("{what} p90 per block"), tally.p90.values(), "us");
        self.samples("p90_blocks", tally.p90.values().len());
        self.required("latency_p90_us", tally.p90.median(), "us");
        self.figure("latency_p50_us", histogram.percentile_us(50.0), "us");
        self.figure("latency_p99_us", histogram.percentile_us(99.0), "us");
    }

    /// Notes the quartiles of `samples` (the spread behind a median).
    pub fn quartiles_note(&mut self, what: &str, samples: &[f64], unit: &str) {
        if let Some((q1, q2, q3)) = crate::stats::quartiles(samples) {
            self.notes.push(format!(
                "{what} quartiles: {q1:.4} / {q2:.4} / {q3:.4} {unit}"
            ));
        }
    }

    pub fn samples(&mut self, what: impl Into<String>, count: usize) {
        self.samples.push((what.into(), count as u64));
    }

    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Prints the table, the stamped record and, last, the result line.
    pub fn print(&self) {
        println!(
            "workload {} seed {} trace {} | nproc {} avx2 {} backend {} pool workers {} fleet shards {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.host.nproc,
            self.host.avx2,
            self.host.backend.name(),
            self.host.pool_workers,
            self.fleet_shards,
        );
        for note in &self.notes {
            println!("note: {note}");
        }
        for (what, count) in &self.samples {
            println!("samples {what}: {count}");
        }
        for metric in &self.metrics {
            println!("{:<44} {:>16.4} {}", metric.name, metric.value, metric.unit);
        }
        for figure in &self.figures {
            println!(
                "{:<44} {:>16.4} {} (not gated)",
                figure.name, figure.value, figure.unit
            );
        }
        for error in &self.errors {
            println!("FAILED CHECK: {error}");
        }
        let failed_pct = 100.0 * self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "attempted {} failed {} (failed_pct {failed_pct:.4} %)",
            self.attempted, self.failed
        );
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(what, count)| format!("\"{}\":{count}", escape(what)))
            .collect();
        println!(
            "{{\"record\":\"perfbench\",\"workload\":\"{}\",\"seed\":{},\"trace\":{},{},\"fleet_shards\":{},\"samples\":{{{}}},\"figures\":{{{}}}}}",
            self.workload,
            self.seed,
            self.trace,
            self.host.json_fields(),
            self.fleet_shards,
            samples.join(","),
            json_metrics(&self.figures),
        );
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json_metrics(&self.metrics),
        );
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                escape(&m.name),
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// A finite number in JSON form with all its digits (non-finite values,
/// which JSON cannot carry, become 0 and are flagged by the caller's checks).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

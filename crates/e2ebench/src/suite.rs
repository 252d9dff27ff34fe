//! Repetitions in fresh processes, reduced to one value per metric.
//!
//! A repetition is this same executable run as `e2ebench rep …`: a fresh
//! process has a fresh heap, so its peak RSS and allocator state are its
//! own. The parent collects one line per repetition, checks that everything
//! the program counted repeats exactly, and reduces the host-clock numbers.

use crate::e2e::{self, Measured, Outcome};
use crate::metrics::{number, Better, Clock, Reading, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{Size, Workload};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest repetitions a measurement reduces over, however slow the host.
pub const MIN_REPS: usize = 5;

/// One repetition's numbers, as the child process printed them.
#[derive(Clone, Debug, PartialEq)]
pub struct RepSample {
    /// One value per [`END_TO_END`] metric, in that order.
    pub values: [f64; END_TO_END.len()],
    /// Operations the trace asked for.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// The run's `sim_digest`.
    pub digest: u64,
}

impl RepSample {
    /// Reduces one repetition.
    pub fn new(measured: &Measured, outcome: &Outcome) -> RepSample {
        let ops = outcome.completed.max(1) as f64;
        RepSample {
            values: [
                outcome.completed as f64 / measured.wall_s,
                measured.setup_s,
                e2e::peak_rss_mb(),
                measured.allocs as f64 / ops,
                measured.alloc_bytes as f64 / ops,
                measured.events as f64 / ops,
                outcome.latency_ms(50.0),
                outcome.latency_ms(99.0),
            ],
            attempted: outcome.attempted,
            failed: outcome.failed(),
            correct: outcome.correct(),
            digest: outcome.digest,
        }
    }

    /// The line a `rep` child prints for its parent.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "REP attempted={} failed={} correct={} digest={:016x}",
            self.attempted, self.failed, self.correct, self.digest
        );
        for (def, v) in END_TO_END.iter().zip(self.values) {
            line.push_str(&format!(" {}={}", def.name, number(v)));
        }
        line
    }

    /// Parses [`RepSample::to_line`].
    pub fn parse(line: &str) -> Result<RepSample, String> {
        let rest = line
            .strip_prefix("REP ")
            .ok_or_else(|| format!("not a repetition line: {line}"))?;
        let field = |key: &str| {
            rest.split(' ')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("repetition line lacks `{key}`"))
        };
        let bad = |key: &str| format!("repetition line has a malformed `{key}`");
        let mut values = [0.0; END_TO_END.len()];
        for (slot, def) in values.iter_mut().zip(&END_TO_END) {
            *slot = field(def.name)?.parse().map_err(|_| bad(def.name))?;
        }
        Ok(RepSample {
            values,
            attempted: field("attempted")?.parse().map_err(|_| bad("attempted"))?,
            failed: field("failed")?.parse().map_err(|_| bad("failed"))?,
            correct: field("correct")?.parse().map_err(|_| bad("correct"))?,
            digest: u64::from_str_radix(field("digest")?, 16).map_err(|_| bad("digest"))?,
        })
    }
}

/// Runs one repetition in a fresh process and returns its numbers. The
/// child has ended by the time this returns.
pub fn spawn_rep(workload: Workload, seed: u64, size: Size) -> Result<RepSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "rep",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
    ]);
    if size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "repetition of {} ended with {}",
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("REP "))
        .ok_or_else(|| format!("repetition of {} printed no result", workload.name()))?;
    RepSample::parse(line)
}

/// All repetitions of one workload.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// The workload measured.
    pub workload: Workload,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// The repetitions, in the order they ran.
    pub reps: Vec<RepSample>,
}

impl WorkloadResult {
    /// Every sample of metric `i`.
    pub fn samples(&self, i: usize) -> Vec<f64> {
        self.reps.iter().map(|r| r.values[i]).collect()
    }

    /// The value reported for metric `i`.
    ///
    /// Count and sim metrics report their median (for the exact ones, the
    /// value every repetition had). Host metrics report their *best*
    /// repetition: the machine's other tenants only ever slow a repetition
    /// down, in stretches longer than a whole measurement, so the median of
    /// one measurement says more about the neighbours than about the
    /// program; the fastest repetition repeated three times more closely
    /// on the probed host (see the README).
    pub fn reported(&self, i: usize) -> f64 {
        let samples = self.samples(i);
        match (END_TO_END[i].clock, END_TO_END[i].better) {
            (Clock::Host, Better::Higher) => samples.iter().copied().fold(f64::MIN, f64::max),
            (Clock::Host, Better::Lower) => samples.iter().copied().fold(f64::MAX, f64::min),
            _ => median(&samples),
        }
    }

    /// The operation counts, `sim_digest` and every `exact` metric are
    /// identical in every repetition.
    pub fn deterministic(&self) -> bool {
        let first = &self.reps[0];
        self.reps.iter().all(|r| {
            r.digest == first.digest
                && r.attempted == first.attempted
                && r.failed == first.failed
                && END_TO_END
                    .iter()
                    .zip(r.values.iter().zip(first.values))
                    .all(|(def, (a, b))| !def.exact || a.to_bits() == b.to_bits())
        })
    }

    /// Every repetition passed its output checks and all agree.
    pub fn correct(&self) -> bool {
        self.deterministic() && self.reps.iter().all(|r| r.correct)
    }

    /// Operations attempted (per repetition).
    pub fn attempted(&self) -> u64 {
        self.reps[0].attempted
    }

    /// Most operations any repetition failed.
    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).max().unwrap_or(0)
    }

    /// The shared `sim_digest`.
    pub fn digest(&self) -> u64 {
        self.reps[0].digest
    }

    /// The driver's result line for a `--trace 0` run.
    pub fn result_line(&self) -> String {
        let metrics: Vec<Reading> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, def)| (def.name.to_owned(), self.reported(i), def.unit))
            .collect();
        crate::metrics::result_line(self.correct(), self.attempted(), self.failed(), &metrics)
    }

    /// Prints every metric by name with unit, clock, direction, bound, the
    /// reported value, the quartiles over the repetitions and their count.
    pub fn print(&self) {
        println!(
            "\n{} seed {}: {} {}s attempted, {} failed (failed_share {}), sim_digest {:016x}, {} repetitions{}",
            self.workload.name(),
            self.seed,
            self.attempted(),
            self.workload.op(),
            self.failed(),
            number(self.failed() as f64 / self.attempted().max(1) as f64),
            self.digest(),
            self.reps.len(),
            if self.deterministic() { "" } else { " — NOT DETERMINISTIC" },
        );
        println!(
            "  {:<20} {:>5} {:>5} {:>6} {:>5} {:>14} {:>14} {:>14} {:>14} {:>7}",
            "metric", "unit", "clock", "better", "bound", "value", "q1", "median", "q3", "spread"
        );
        for (i, def) in END_TO_END.iter().enumerate() {
            let samples = self.samples(i);
            let (q1, q3) = quartiles(&samples);
            println!(
                "  {:<20} {:>5} {:>5} {:>6} {:>4.0}% {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>6.1}%",
                def.name,
                def.unit,
                def.clock.label(),
                def.better.label(),
                def.bound * 100.0,
                self.reported(i),
                q1,
                median(&samples),
                q3,
                spread(&samples) * 100.0,
            );
        }
    }
}

/// Measures one workload: fresh-process repetitions until `seconds` of wall
/// time have passed, and at least [`MIN_REPS`].
pub fn measure(
    workload: Workload,
    seed: u64,
    size: Size,
    seconds: f64,
) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        reps.push(spawn_rep(workload, seed, size)?);
    }
    Ok(WorkloadResult {
        workload,
        seed,
        reps,
    })
}

/// By what share of the smaller `x` and `y` differ.
fn differ(x: f64, y: f64) -> f64 {
    (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE)
}

/// Prints two measurements of one workload side by side: per metric both
/// values, their difference, the bound, and the spread each measurement saw
/// over its own repetitions — so a bound too tight for the machine shows.
pub fn print_comparison(a: &WorkloadResult, b: &WorkloadResult) {
    println!("  {}:", a.workload.name());
    for (i, def) in END_TO_END.iter().enumerate() {
        let (x, y) = (a.reported(i), b.reported(i));
        println!(
            "    {:<20} {:>20} vs {:>20}  differ {:>7.3}%  bound {:>4.1}%  spread of the repetitions {:>6.3}% / {:>6.3}%",
            def.name,
            number(x),
            number(y),
            differ(x, y) * 100.0,
            def.bound * 100.0,
            spread(&a.samples(i)) * 100.0,
            spread(&b.samples(i)) * 100.0,
        );
    }
}

/// Compares two measurements of the same build. Returns one line per
/// disagreement: `exact` metrics and `sim_digest` must be identical, the
/// others must agree within their bound.
pub fn disagreements(a: &WorkloadResult, b: &WorkloadResult) -> Vec<String> {
    let mut out = Vec::new();
    if a.digest() != b.digest() {
        out.push(format!(
            "{}: sim_digest {:016x} vs {:016x}",
            a.workload.name(),
            a.digest(),
            b.digest()
        ));
    }
    for (i, def) in END_TO_END.iter().enumerate() {
        let (x, y) = (a.reported(i), b.reported(i));
        let ok = if def.exact {
            x.to_bits() == y.to_bits()
        } else {
            differ(x, y) <= def.bound
        };
        if !ok {
            out.push(format!(
                "{}: {} {} vs {} (bound {}%)",
                a.workload.name(),
                def.name,
                number(x),
                number(y),
                def.bound * 100.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ops_per_s: f64, p50: f64) -> RepSample {
        RepSample {
            values: [ops_per_s, 0.01, 20.0, 100.5, 2048.25, 18.0, p50, 4.5],
            attempted: 1000,
            failed: 0,
            correct: true,
            digest: 0xdead_beef_0000_0001,
        }
    }

    fn result(reps: Vec<RepSample>) -> WorkloadResult {
        WorkloadResult {
            workload: Workload::FlowChurn,
            seed: 1,
            reps,
        }
    }

    #[test]
    fn rep_lines_round_trip_to_the_last_digit() {
        let s = sample(40_123.456_789, 3.151259);
        assert_eq!(RepSample::parse(&s.to_line()), Ok(s));
        assert!(RepSample::parse("nope").is_err());
        assert!(RepSample::parse("REP attempted=1").is_err());
    }

    #[test]
    fn host_metrics_report_their_best_repetition_and_sim_metrics_must_repeat() {
        let mut reps: Vec<RepSample> = (1..=5)
            .map(|i| sample(f64::from(i) * 1000.0, 3.0))
            .collect();
        reps[2].values[3] = 100.6;
        let r = result(reps);
        assert_eq!(r.reported(0), 5000.0, "fastest repetition");
        assert_eq!(r.reported(1), 0.01, "quickest set-up");
        assert_eq!(
            r.reported(3),
            100.5,
            "heap traffic may jitter; its median is reported"
        );
        assert_eq!(r.reported(6), 3.0);
        assert!(r.correct());
        let mut reps = r.reps.clone();
        reps[3].values[6] = 3.000001;
        let r = result(reps);
        assert!(!r.deterministic(), "a sim metric that differs is caught");
        assert!(!r.correct());
        assert!(r
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 1000"));
    }

    #[test]
    fn disagreements_use_the_bound_for_host_and_equality_for_counts() {
        let a = result(vec![sample(1000.0, 3.0); 5]);
        let close = result(vec![sample(1200.0, 3.0); 5]);
        let far = result(vec![sample(1300.0, 3.0); 5]);
        let other = result(vec![sample(1000.0, 3.1); 5]);
        assert!(disagreements(&a, &close).is_empty());
        assert_eq!(disagreements(&a, &far).len(), 1);
        assert_eq!(disagreements(&a, &other).len(), 1);
    }
}

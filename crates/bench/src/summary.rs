//! The claim-by-claim verdict table: every quantitative statement in the
//! paper's evaluation text, measured fresh and judged — plus the perf
//! trajectory folded from the committed `BENCH_*.json` artifacts.

use crate::artifact::{self, num, row, sum};
use desim::Summary;
use testbed::experiments::{self, run_trace_experiment};
use testbed::report::Table;
use testbed::ClusterKind;
use workload::{Trace, TraceConfig};
use yamlite::Value;

fn median(v: &[f64]) -> f64 {
    Summary::new(v.to_vec()).median().unwrap_or(f64::NAN)
}

/// One verified claim.
pub struct Claim {
    /// Where the paper states it.
    pub source: &'static str,
    /// The claim, paraphrased.
    pub statement: &'static str,
    /// What we measured.
    pub measured: String,
    /// Whether the measurement supports the claim.
    pub holds: bool,
}

/// Measures every textual claim of the evaluation section for `seed`.
pub fn verify_claims(seed: u64) -> Vec<Claim> {
    let d_nginx = run_trace_experiment(ClusterKind::Docker, &svc("nginx"), true, seed);
    let d_asm = run_trace_experiment(ClusterKind::Docker, &svc("asm"), true, seed);
    let d_resnet = run_trace_experiment(ClusterKind::Docker, &svc("resnet"), true, seed);
    let k_nginx = run_trace_experiment(ClusterKind::K8s, &svc("nginx"), true, seed);
    let d_nginx_cs = run_trace_experiment(ClusterKind::Docker, &svc("nginx"), false, seed);

    let dn = median(&d_nginx.firsts);
    let da = median(&d_asm.firsts);
    let kn = median(&k_nginx.firsts);
    let create_delta = median(&d_nginx_cs.firsts) - dn;
    let resnet_total = median(&d_resnet.firsts);
    let resnet_wait = median(&d_resnet.waits);
    let warm_n = median(&d_nginx.warm);
    let warm_r = median(&d_resnet.warm);

    let fig13 = experiments::fig13(32);
    let saving: f64 = fig13
        .table
        .rows
        .iter()
        .find(|r| r[0] == "nginx")
        .map(|r| r[3].trim_end_matches(" s").parse().unwrap())
        .unwrap_or(f64::NAN);

    let trace = Trace::generate(TraceConfig::default(), seed);
    let counts = trace.per_service_counts();

    vec![
        Claim {
            source: "Abstract / §VII",
            statement: "nginx first request via Docker can be as low as ~0.5 s",
            measured: format!("{dn:.3} s"),
            holds: (0.35..0.75).contains(&dn),
        },
        Claim {
            source: "§VI (Fig. 11)",
            statement: "Docker scale-up stays under one second (cached images)",
            measured: format!("asm {da:.3} s, nginx {dn:.3} s"),
            holds: da < 1.0 && dn < 1.0,
        },
        Claim {
            source: "§VI (Fig. 11)",
            statement: "Kubernetes takes around three seconds for the same container",
            measured: format!("{kn:.3} s ({:.1}x Docker)", kn / dn),
            holds: (2.0..4.0).contains(&kn) && kn / dn > 3.0,
        },
        Claim {
            source: "§VI",
            statement: "no notable difference between asm and nginx start",
            measured: format!("|{da:.3} - {dn:.3}| = {:.3} s", (da - dn).abs()),
            holds: (da - dn).abs() < 0.25,
        },
        Claim {
            source: "§VI (Fig. 12)",
            statement: "creating the containers adds around 100 ms",
            measured: format!("+{create_delta:.3} s"),
            holds: (0.04..0.35).contains(&create_delta),
        },
        Claim {
            source: "§VI (Fig. 14)",
            statement: "ResNet wait alone exceeds a fourth of its total",
            measured: format!(
                "wait {resnet_wait:.3} s / total {resnet_total:.3} s = {:.0} %",
                100.0 * resnet_wait / resnet_total
            ),
            holds: resnet_wait / resnet_total > 0.25,
        },
        Claim {
            source: "§VI (Fig. 13)",
            statement: "private registry improves pulls by about 1.5–2 s",
            measured: format!("{saving:.2} s (nginx)"),
            holds: (1.0..3.0).contains(&saving),
        },
        Claim {
            source: "§VI (Fig. 16)",
            statement: "short responses ~milliseconds; ResNet significantly longer",
            measured: format!("nginx {:.1} ms, resnet {:.0} ms", warm_n * 1e3, warm_r * 1e3),
            holds: warm_n < 0.01 && warm_r / warm_n > 20.0,
        },
        Claim {
            source: "§VI (Figs. 9/10)",
            statement: "1708 requests, 42 services, ≥20 requests each",
            measured: format!(
                "{} requests, {} services, min {}",
                trace.requests.len(),
                counts.len(),
                counts.iter().min().unwrap()
            ),
            holds: trace.requests.len() == 1708
                && counts.len() == 42
                && *counts.iter().min().unwrap() >= 20,
        },
        Claim {
            source: "§VI (port polling)",
            statement: "held requests never hit a closed port (no RSTs)",
            measured: format!(
                "{} resets over {} requests",
                d_nginx.resets + k_nginx.resets + d_resnet.resets,
                d_nginx.warm.len() + d_nginx.firsts.len()
            ),
            holds: d_nginx.resets + k_nginx.resets + d_resnet.resets == 0,
        },
    ]
}

fn svc(key: &str) -> containerd::ServiceProfile {
    containerd::ServiceSet::by_key(key).expect("known profile")
}

/// Renders the claim table.
pub fn render(claims: &[Claim]) -> String {
    let mut t = Table::new(&["Source", "Claim", "Measured", "Verdict"]);
    for c in claims {
        t.row(vec![
            c.source.to_string(),
            c.statement.to_string(),
            c.measured.clone(),
            if c.holds { "HOLDS".into() } else { "FAILS".into() },
        ]);
    }
    t.render()
}

/// One row of the perf trajectory: the headline number of a committed
/// `BENCH_*.json` artifact.
pub struct PerfPoint {
    /// Artifact file name at the repository root.
    pub artifact: &'static str,
    /// The subsystem the bench measures.
    pub subsystem: &'static str,
    /// Its headline number, formatted.
    pub headline: String,
    /// Supporting numbers.
    pub detail: String,
}

/// How an artifact's parsed value becomes its `(headline, detail)` cells;
/// `None` when a field it reads is absent.
type Cells = fn(&Value) -> Option<(String, String)>;

/// The trajectory, one entry per committed artifact: file, subsystem, cells.
/// A number quoted from a single row of an artifact says which row; counts
/// a reader would take for the run's are summed over its rows.
const TRAJECTORY: [(&str, &str, Cells); 8] = [
    ("BENCH_flowtable.json", "data plane", |v| {
        let largest = v["sizes"].as_seq()?.last()?;
        Some((
            format!(
                "indexed lookup @100k flows {:.2}x its cost @10",
                num(v, "indexed_100k_over_10_ratio")?
            ),
            format!("warm switch hit {:.0} ns", num(largest, "switch_hit_ns")?),
        ))
    }),
    ("BENCH_engine.json", "event core", |v| {
        let mixed = row(v, "workloads", "name", "mixed")?;
        Some((
            format!(
                "calendar {:.2}M ev/s mixed ({:.2}x naive)",
                num(mixed, "calendar_events_per_sec")? / 1e6,
                num(v, "mixed_speedup")?
            ),
            format!(
                "CI floor {:.1}M ev/s, met: {}",
                num(v, "events_per_sec_floor")? / 1e6,
                v["floor_met"].as_bool()?
            ),
        ))
    }),
    ("BENCH_mobility.json", "handover", |v| {
        let anchored = row(v, "policies", "policy", "anchored")?;
        Some((
            format!(
                "anchored p99 interruption {:.3} ms",
                num(anchored, "interruption_p99_ms")?
            ),
            format!(
                "{:.0} handovers (anchored), {:.0} pings dropped",
                num(anchored, "handovers")?,
                num(v, "total_dropped")?
            ),
        ))
    }),
    ("BENCH_recovery.json", "self-healing", |v| {
        Some((
            format!(
                "{:.0} stranded, {:.0} reconcile residual",
                num(v, "total_stranded")?,
                num(v, "total_reconcile_residual")?
            ),
            format!(
                "{:.0} crashes, {:.0} outages survived",
                sum(v, "policies", "crashes")?,
                sum(v, "policies", "outages")?
            ),
        ))
    }),
    ("BENCH_scale.json", "fleet scale", |v| {
        Some((
            format!(
                "aggregated table {:.0}x smaller @{:.0}M clients",
                num(v, "table_reduction_x")?,
                num(v, "clients")? / 1e6
            ),
            format!(
                "{:.0} vs {:.0} flows, {:.0}k pkt-in/s",
                num(v, "aggregated_table_flows")?,
                num(v, "exact_table_flows")?,
                num(row(v, "arms", "arm", "aggregated")?, "packet_ins_per_sec")? / 1e3
            ),
        ))
    }),
    ("BENCH_tournament.json", "load-aware scheduling", |v| {
        let lc = row(v, "arms", "arm", "least-connections")?;
        Some((
            format!(
                "least-connections warm p99 {:.1} ms vs random {:.1} ms",
                num(v, "least_connections_p99_ms")?,
                num(v, "random_p99_ms")?
            ),
            format!(
                "{} arms, lc {:.0} cold starts, cost {:.2} mean replicas",
                crate::tournament::ARMS.len(),
                num(lc, "cold_starts")?,
                num(lc, "mean_replicas")?
            ),
        ))
    }),
    ("BENCH_migrate.json", "live migration", |v| {
        Some((
            format!(
                "live p99 {:.2} ms vs cold {:.1} ms at largest state",
                num(v, "live_p99_ms_at_largest")?,
                num(v, "cold_p99_ms")?
            ),
            format!(
                "{:.0} migrations, {:.1} MB shipped, {:.0} dropped",
                num(v, "total_migrations")?,
                num(v, "total_state_bytes_transferred")? / 1e6,
                num(v, "total_dropped")?
            ),
        ))
    }),
    ("BENCH_ha.json", "crash recovery", |v| {
        Some((
            format!(
                "warm p99 {:.1} ms vs cold {:.1} ms at largest state",
                num(v, "warm_p99_ms_at_largest")?,
                num(v, "cold_p99_ms_at_largest")?
            ),
            format!(
                "{:.0} stranded, {:.0} residual, {:.0} panics at crash rate {:.0}",
                num(v, "total_stranded")?,
                num(v, "total_reconcile_residual")?,
                num(v, "panics")?,
                num(v, "crash_rate")?
            ),
        ))
    }),
];

/// Reads the eight committed bench artifacts and condenses each into one
/// trajectory row. Artifacts that have not been generated yet show up as
/// `missing` rather than failing the summary.
pub fn perf_trajectory() -> Vec<PerfPoint> {
    let missing = || ("(missing — see README for the repro command)".to_string(), String::new());
    TRAJECTORY
        .iter()
        .map(|&(artifact, subsystem, cells)| {
            let read = artifact::read(artifact).ok();
            let (headline, detail) = read.and_then(|v| cells(&v)).unwrap_or_else(missing);
            PerfPoint {
                artifact,
                subsystem,
                headline,
                detail,
            }
        })
        .collect()
}

/// Renders the perf trajectory table.
pub fn render_trajectory(points: &[PerfPoint]) -> String {
    let mut t = Table::new(&["Artifact", "Subsystem", "Headline", "Detail"]);
    for p in points {
        t.row(vec![
            p.artifact.to_string(),
            p.subsystem.to_string(),
            p.headline.clone(),
            p.detail.clone(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_sums_counts_over_policies_and_names_the_row_it_quotes() {
        // Two policy rows that differ: the first-match scanner this replaced
        // reported the anchored row's 3 crashes / 4 outages / 94 handovers
        // as the run's.
        let cells = |file: &str, text: &str| {
            let (_, _, cells) = TRAJECTORY.iter().find(|(f, ..)| *f == file).unwrap();
            cells(&artifact::parse(text).unwrap()).unwrap()
        };
        let (headline, detail) = cells(
            "BENCH_recovery.json",
            "{\"policies\": [{\"policy\": \"anchored\", \"crashes\": 3, \"outages\": 4},\n              {\"policy\": \"redispatch\", \"crashes\": 2, \"outages\": 5}],\n              \"total_stranded\": 0, \"total_reconcile_residual\": 0}",
        );
        assert_eq!(headline, "0 stranded, 0 reconcile residual");
        assert_eq!(detail, "5 crashes, 9 outages survived");
        let (headline, detail) = cells(
            "BENCH_mobility.json",
            "{\"policies\": [{\"policy\": \"redispatch\", \"handovers\": 90, \"interruption_p99_ms\": 302.5},\n              {\"policy\": \"anchored\", \"handovers\": 94, \"interruption_p99_ms\": 2.004}],\n              \"total_dropped\": 0}",
        );
        assert_eq!(
            headline, "anchored p99 interruption 2.004 ms",
            "whatever the row order"
        );
        assert_eq!(detail, "94 handovers (anchored), 0 pings dropped");
    }

    #[test]
    fn a_trajectory_row_with_a_missing_field_reads_as_missing_not_as_a_panic() {
        for (file, _, cells) in TRAJECTORY {
            assert!(
                cells(&artifact::parse("{\"bench\": \"x\"}").unwrap()).is_none(),
                "{file}"
            );
        }
    }

    #[test]
    fn trajectory_always_has_all_eight_rows() {
        let points = perf_trajectory();
        assert_eq!(points.len(), 8);
        assert_eq!(points[1].artifact, "BENCH_engine.json");
        assert_eq!(points[4].artifact, "BENCH_scale.json");
        assert_eq!(points[5].artifact, "BENCH_tournament.json");
        assert_eq!(points[6].artifact, "BENCH_migrate.json");
        assert_eq!(points[7].artifact, "BENCH_ha.json");
        let text = render_trajectory(&points);
        assert!(text.contains("event core"));
        assert!(text.contains("data plane"));
        assert!(text.contains("load-aware scheduling"));
        assert!(text.contains("live migration"));
        assert!(text.contains("crash recovery"));
    }

    #[test]
    fn every_claim_holds() {
        let claims = verify_claims(7);
        assert_eq!(claims.len(), 10);
        for c in &claims {
            assert!(c.holds, "{}: {} — measured {}", c.source, c.statement, c.measured);
        }
        let text = render(&claims);
        assert!(text.contains("HOLDS"));
        assert!(!text.contains("FAILS"));
    }
}

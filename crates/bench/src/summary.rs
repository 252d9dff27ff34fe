//! The claim-by-claim verdict table: every quantitative statement in the
//! paper's evaluation text, measured fresh and judged.

use desim::SimTime;
use testbed::experiments::{self, run_trace_experiment};
use testbed::report::Table;
use testbed::ClusterKind::{self, Docker, K8s};
use workload::{Trace, TraceConfig};

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

/// Measures every textual claim of the evaluation section for `seed`: the
/// one list `repro summary` prints and the root package's tests assert.
pub fn verify_claims(seed: u64) -> Vec<Claim> {
    let run = |kind: ClusterKind, key: &str, pre_create| run_trace_experiment(kind, &svc(key), pre_create, seed);
    let d_nginx = run(Docker, "nginx", true);
    let d_asm = run(Docker, "asm", true);
    let d_nginx_py = run(Docker, "nginx-py", true);
    let d_resnet = run(Docker, "resnet", true);
    let k_nginx = run(K8s, "nginx", true);
    let k_asm = run(K8s, "asm", true);
    let d_nginx_cs = run(Docker, "nginx", false);
    let replays = [&d_nginx, &d_asm, &d_nginx_py, &d_resnet, &k_nginx, &k_asm, &d_nginx_cs];

    let (dn, da, dp) = (d_nginx.median_first(), d_asm.median_first(), d_nginx_py.median_first());
    let (kn, ka) = (k_nginx.median_first(), k_asm.median_first());
    let create_delta = d_nginx_cs.median_first() - dn;
    let (resnet_total, resnet_wait) = (d_resnet.median_first(), d_resnet.median_wait());
    let (warm_n, warm_k, warm_r) = (d_nginx.median_warm(), k_nginx.median_warm(), d_resnet.median_warm());
    let resets: u64 = replays.iter().map(|r| r.resets).sum();
    let requests: usize = replays.iter().map(|r| r.firsts.len() + r.warm.len()).sum();
    let nginx_complete = [&d_nginx, &k_nginx].iter().all(|r| r.firsts.len() == 42 && r.warm.len() > 1600);

    let fig13 = experiments::fig13(32);
    let saving = |key: &str| -> f64 {
        let row = fig13.table.rows.iter().find(|r| r[0] == key);
        row.map_or(f64::NAN, |r| r[3].trim_end_matches(" s").parse().unwrap())
    };
    let (sn, sr, sp) = (saving("nginx"), saving("resnet"), saving("nginx-py"));

    let trace = Trace::generate(TraceConfig::default(), seed);
    let counts = trace.per_service_counts();
    let least = counts.iter().min().copied().unwrap_or(0);
    let early = trace.deployment_times().iter().filter(|&&t| t <= SimTime::from_secs(30)).count();

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
            measured: format!("asm {da:.3} s, nginx {dn:.3} s, nginx-py {dp:.3} s"),
            holds: da < 1.0 && dn < 1.0 && dp < 1.0,
        },
        Claim {
            source: "§VI (Fig. 11)",
            statement: "Kubernetes takes around three seconds for the same container",
            measured: format!("asm {ka:.3} s, nginx {kn:.3} s"),
            holds: (2.0..4.0).contains(&ka) && (2.0..4.0).contains(&kn),
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
            holds: resnet_total > 2.0 && resnet_wait / resnet_total > 0.25,
        },
        Claim {
            source: "§VI (Fig. 13)",
            statement: "private registry improves pulls by about 1.5–2 s",
            measured: format!("nginx {sn:.2} s, resnet {sr:.2} s, nginx-py {sp:.2} s"),
            holds: (1.0..3.0).contains(&sn) && (1.0..3.5).contains(&sr) && (1.0..3.5).contains(&sp),
        },
        Claim {
            source: "§VI (Fig. 16)",
            statement: "short responses ~milliseconds; ResNet significantly longer",
            measured: format!(
                "nginx {:.1} ms Docker, {:.1} ms K8s; resnet {:.0} ms",
                warm_n * 1e3,
                warm_k * 1e3,
                warm_r * 1e3
            ),
            holds: warm_n < 0.01 && warm_k < 0.01 && (warm_n - warm_k).abs() < 0.005 && warm_r / warm_n > 20.0,
        },
        Claim {
            source: "§VI (Figs. 9/10)",
            statement: "1708 requests, 42 services, ≥20 requests each",
            measured: format!(
                "{} requests, {} services, min {least}, {early} first in 30 s",
                trace.requests.len(),
                counts.len()
            ),
            holds: trace.requests.len() == 1708 && counts.len() == 42 && least >= 20 && early >= 30,
        },
        Claim {
            source: "§VI (port polling)",
            statement: "held requests never hit a closed port (no RSTs)",
            measured: format!("{resets} resets over {requests} requests in {} replays", replays.len()),
            holds: resets == 0 && nginx_complete,
        },
        Claim {
            source: "§VI (Fig. 11)",
            statement: "orchestration dominates: Kubernetes > 3x Docker, same containerd",
            measured: format!("nginx {kn:.3} s / {dn:.3} s = {:.1}x", kn / dn),
            holds: kn / dn > 3.0,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether each claim holds is asserted at two seeds by the root
    /// package's `tests/paper_claims.rs`; here only the table's verdicts.
    #[test]
    fn the_table_gives_each_claim_its_verdict() {
        let claim = |holds| Claim { source: "§VI", statement: "s", measured: "m".into(), holds };
        let text = render(&[claim(true), claim(false)]);
        let verdicts: Vec<_> = text.lines().filter_map(|l| l.split_whitespace().last()).collect();
        assert!(verdicts.ends_with(&["HOLDS", "FAILS"]), "{text}");
    }
}

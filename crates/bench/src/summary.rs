//! The claim-by-claim verdict table: every quantitative statement in the
//! paper's evaluation text, measured fresh and judged.

use desim::Summary;
use testbed::experiments::{self, run_trace_experiment};
use testbed::report::Table;
use testbed::ClusterKind;
use workload::{Trace, TraceConfig};

fn median(v: &[f64]) -> f64 {
    Summary::new(v.to_vec()).median().unwrap_or(f64::NAN)
}

/// One verified claim.
pub struct Claim {
    /// Where the paper states it.
    pub source: &'static str,
    /// The claim, paraphrased.
    pub(crate) statement: &'static str,
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

#[cfg(test)]
mod tests {
    use super::*;

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

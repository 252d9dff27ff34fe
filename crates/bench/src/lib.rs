//! The benches, figures and artifact gates behind the `repro` binary.

#![warn(missing_docs)]

pub mod artifact;
pub mod engine;
pub mod fastpath;
pub mod ha;
pub mod migrate;
pub mod mobility;
pub mod recovery;
pub mod runner;
pub mod scale;
pub mod summary;
pub mod telemetry;
pub mod tournament;

use testbed::experiments::{self, EvalRuns, Figure};

/// Regenerates every table/figure of the paper (and the ablations) for one
/// seed, in publication order.
pub fn all_figures(seed: u64) -> Vec<Figure> {
    let mut out = Vec::new();
    out.push(experiments::table1());
    out.push(experiments::fig9(seed));
    out.push(experiments::fig10(seed));
    let scale_up = EvalRuns::collect(true, seed);
    let create_scale = EvalRuns::collect(false, seed);
    out.push(experiments::fig11(&scale_up));
    out.push(experiments::fig12(&create_scale));
    out.push(experiments::fig13(32));
    out.push(experiments::fig14(&scale_up));
    out.push(experiments::fig15(&create_scale));
    out.push(experiments::fig16(&scale_up));
    out.push(experiments::hybrid(seed));
    out.push(experiments::waiting_comparison(seed));
    out.push(experiments::timeout_sweep(seed));
    out.push(experiments::proactive(seed));
    out.push(experiments::local_scheduler(seed));
    out.push(experiments::hierarchy(seed));
    out
}

/// Regenerates a single figure by id (`table1`, `fig9` ... `fig16`,
/// `hybrid`, `waiting`, `timeout-sweep`).
pub fn figure_by_id(id: &str, seed: u64) -> Option<Figure> {
    Some(match id {
        "table1" => experiments::table1(),
        "fig9" => experiments::fig9(seed),
        "fig10" => experiments::fig10(seed),
        "fig11" => experiments::fig11(&EvalRuns::collect(true, seed)),
        "fig12" => experiments::fig12(&EvalRuns::collect(false, seed)),
        "fig13" => experiments::fig13(32),
        "fig14" => experiments::fig14(&EvalRuns::collect(true, seed)),
        "fig15" => experiments::fig15(&EvalRuns::collect(false, seed)),
        "fig16" => experiments::fig16(&EvalRuns::collect(true, seed)),
        "hybrid" => experiments::hybrid(seed),
        "waiting" => experiments::waiting_comparison(seed),
        "timeout-sweep" => experiments::timeout_sweep(seed),
        "proactive" => experiments::proactive(seed),
        "local-scheduler" => experiments::local_scheduler(seed),
        "hierarchy" => experiments::hierarchy(seed),
        _ => return None,
    })
}

/// The figure ids `figure_by_id` accepts, in order.
pub const FIGURE_IDS: &[&str] = &[
    "table1", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "hybrid",
    "waiting", "timeout-sweep", "proactive", "local-scheduler", "hierarchy",
];

//! The benches, figures and artifact gates behind the `repro` binary.

#![warn(missing_docs)]

mod artifact;
pub mod engine;
mod ha;
pub mod migrate;
pub mod mobility;
pub mod recovery;
pub mod runner;
pub mod scale;
pub mod summary;
mod tournament;

use testbed::experiments::{self as ex, DeploymentRun as Run, EvalRuns, Figure};
use Build::{Fixed, Matrix, Seeded};

/// How a figure is built.
#[derive(Clone, Copy)]
enum Build {
    /// From nothing: the figure does not read `--seed`.
    Fixed(fn() -> Figure),
    /// From the seed.
    Seeded(fn(u64) -> Figure),
    /// One metric of a trace-replay matrix, with services pre-created or
    /// not, under a title.
    Matrix(bool, fn(&Run) -> f64, &'static str),
}

/// Every table and figure of the paper and the ablations, in publication
/// order: its id and how to build it.
const FIGURES: &[(&str, Build)] = &[
    ("table1", Fixed(ex::table1)),
    ("fig9", Seeded(ex::fig9)),
    ("fig10", Seeded(ex::fig10)),
    ("fig11", Matrix(true, Run::median_first, "Total time (median) to scale up four services on two clusters")),
    ("fig12", Matrix(false, Run::median_first, "Total time (median) to create + scale up four services on two clusters")),
    ("fig13", Fixed(|| ex::fig13(32))),
    ("fig14", Matrix(true, Run::median_wait, "Wait time (median) until services are ready after being scaled up")),
    ("fig15", Matrix(false, Run::median_wait, "Wait time (median) until services are ready after create + scale up")),
    ("fig16", Matrix(true, Run::median_warm, "Total time (median) for client requests once the instance is running")),
    ("hybrid", Seeded(ex::hybrid)),
    ("waiting", Seeded(ex::waiting_comparison)),
    ("timeout-sweep", Seeded(ex::timeout_sweep)),
    ("proactive", Seeded(ex::proactive)),
    ("local-scheduler", Seeded(ex::local_scheduler)),
    ("hierarchy", Seeded(ex::hierarchy)),
];

/// The figure ids, in publication order.
pub fn figure_ids() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|(id, _)| *id)
}

/// Whether `id` names a figure that reads `--seed`.
pub(crate) fn seeded_figure(id: &str) -> bool {
    FIGURES.iter().any(|(f, build)| *f == id && !matches!(build, Fixed(_)))
}

/// Builds the figure `id` for `seed`, or every figure in publication order
/// for `all`; `None` for any other id. Each trace-replay matrix is replayed
/// at most once, however many figures read it.
pub fn figures(id: &str, seed: u64) -> Option<Vec<Figure>> {
    let mut matrices: [Option<EvalRuns>; 2] = [None, None];
    let figures: Vec<Figure> = FIGURES
        .iter()
        .filter(|(f, _)| id == "all" || *f == id)
        .map(|&(id, build)| match build {
            Fixed(build) => build(),
            Seeded(build) => build(seed),
            Matrix(pre_create, metric, title) => matrices[usize::from(pre_create)]
                .get_or_insert_with(|| EvalRuns::collect(pre_create, seed))
                .figure(id, title, metric),
        })
        .collect();
    (!figures.is_empty()).then_some(figures)
}

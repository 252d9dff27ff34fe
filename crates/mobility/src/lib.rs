//! `mobility` — deterministic, seedable user-mobility models.
//!
//! The paper places the transparent redirect at "the gNB in 5G terms": the
//! ingress OpenFlow switch is a cell. A moving user detaches from one cell
//! and attaches to another, and the controller must hand its session over.
//! This crate provides the *movement* half of that scenario: a
//! [`MobilityModel`] assigns every workload client an initial cell and emits
//! a timed, ordered stream of [`AttachmentEvent`]s over a simulation
//! horizon. Models are pure functions of their seed — the same seed always
//! produces the byte-identical event stream, which keeps every figure built
//! on top reproducible.
//!
//! Two models mirror the standard mobility literature:
//!
//! * [`RandomWaypoint`] — the classic random-waypoint walk over a
//!   rectangular [`CellGrid`]: pick a waypoint, walk to it at constant
//!   speed, pause, repeat; the attachment is the cell the position falls in;
//! * [`CellHops`] — trace-driven: an explicit list of `(time, client, cell)`
//!   hops. With no hops nobody moves, and a multi-cell run must behave
//!   exactly like the single-ingress testbed.

#![warn(missing_docs)]

use desim::{Duration, SimRng, SimTime};

/// A rectangular grid of cells; cell ids are `row * cols + col`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellGrid {
    /// Number of columns.
    pub(crate) cols: u32,
    /// Number of rows.
    pub rows: u32,
    /// Edge length of one (square) cell in metres.
    pub(crate) cell_size_m: f64,
}

impl CellGrid {
    /// A `cols x rows` grid of square cells of `cell_size_m` metres.
    pub fn new(cols: u32, rows: u32, cell_size_m: f64) -> CellGrid {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        assert!(cell_size_m > 0.0, "cells must have positive size");
        CellGrid { cols, rows, cell_size_m }
    }

    /// Total number of cells.
    pub(crate) fn n_cells(&self) -> usize {
        (self.cols * self.rows) as usize
    }

    /// Field width in metres.
    pub(crate) fn width_m(&self) -> f64 {
        f64::from(self.cols) * self.cell_size_m
    }

    /// Field height in metres.
    pub(crate) fn height_m(&self) -> f64 {
        f64::from(self.rows) * self.cell_size_m
    }

    /// The cell containing position `(x, y)` (metres, clamped to the field).
    pub(crate) fn cell_at(&self, x: f64, y: f64) -> usize {
        let col = ((x / self.cell_size_m) as i64).clamp(0, i64::from(self.cols) - 1) as u32;
        let row = ((y / self.cell_size_m) as i64).clamp(0, i64::from(self.rows) - 1) as u32;
        (row * self.cols + col) as usize
    }

    /// Centre of `cell` in metres.
    pub(crate) fn center_of(&self, cell: usize) -> (f64, f64) {
        let cell = cell as u32;
        let col = cell % self.cols;
        let row = cell / self.cols;
        (
            (f64::from(col) + 0.5) * self.cell_size_m,
            (f64::from(row) + 0.5) * self.cell_size_m,
        )
    }
}

/// One attachment change: `client` detaches from `from_cell` and attaches
/// to `to_cell` at instant `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttachmentEvent {
    /// When the change happens.
    pub at: SimTime,
    /// Workload client index.
    pub client: usize,
    /// Cell the client detaches from.
    pub from_cell: usize,
    /// Cell the client attaches to.
    pub to_cell: usize,
}

/// A mobility model: initial attachments plus a deterministic event stream.
pub trait MobilityModel {
    /// Model name (figure labels).
    fn name(&self) -> &str;

    /// Number of clients this model moves.
    fn n_clients(&self) -> usize;

    /// The cell `client` starts attached to.
    fn initial_cell(&self, client: usize) -> usize;

    /// All attachment changes within `[0, horizon)`, sorted by
    /// `(at, client)`. Calling twice on the same model yields the identical
    /// stream (models pre-compute or derive from an owned seeded RNG that is
    /// re-seeded per call).
    fn events(&mut self, horizon: Duration) -> Vec<AttachmentEvent>;
}

/// Classic random waypoint over a [`CellGrid`]: each client starts at the
/// centre of a seed-chosen cell, repeatedly picks a uniform waypoint in the
/// field, walks there at a uniform-chosen speed, pauses, and repeats. An
/// [`AttachmentEvent`] is emitted whenever the walk crosses a cell border.
pub struct RandomWaypoint {
    grid: CellGrid,
    n_clients: usize,
    seed: u64,
    /// Walking speed range in m/s (uniform per leg).
    speed_mps: (f64, f64),
    /// Pause at each waypoint in seconds (uniform).
    pause_s: (f64, f64),
    initial: Vec<usize>,
}

impl RandomWaypoint {
    /// A seeded random-waypoint model. Speeds default to a brisk vehicular
    /// 8–14 m/s and pauses to 2–10 s; override with [`Self::with_speed`].
    pub fn new(grid: CellGrid, n_clients: usize, seed: u64) -> RandomWaypoint {
        let mut rng = SimRng::new(seed ^ 0x6d6f_6269); // "mobi"
        let initial = (0..n_clients)
            .map(|_| rng.below(grid.n_cells() as u64) as usize)
            .collect();
        RandomWaypoint {
            grid,
            n_clients,
            seed,
            speed_mps: (8.0, 14.0),
            pause_s: (2.0, 10.0),
            initial,
        }
    }

    /// Overrides the leg-speed range (m/s).
    pub fn with_speed(mut self, lo: f64, hi: f64) -> RandomWaypoint {
        assert!(lo > 0.0 && hi >= lo);
        self.speed_mps = (lo, hi);
        self
    }

    fn uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
        lo + rng.next_f64() * (hi - lo)
    }

    /// Walks one client, pushing its border crossings into `out`.
    fn walk_client(&self, client: usize, horizon: Duration, out: &mut Vec<AttachmentEvent>) {
        // Per-client stream: independent of every other client and of how
        // many events other clients generate.
        let mut rng = SimRng::new(self.seed ^ 0x7761_7970 ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (mut x, mut y) = self.grid.center_of(self.initial[client]);
        let mut cell = self.initial[client];
        let mut t = 0.0f64;
        let horizon_s = horizon.as_nanos() as f64 / 1e9;
        while t < horizon_s {
            let wx = Self::uniform(&mut rng, 0.0, self.grid.width_m());
            let wy = Self::uniform(&mut rng, 0.0, self.grid.height_m());
            let speed = Self::uniform(&mut rng, self.speed_mps.0, self.speed_mps.1);
            let (dx, dy) = (wx - x, wy - y);
            let dist = (dx * dx + dy * dy).sqrt();
            let leg_s = dist / speed;
            // Sample the leg finely enough that no cell can be skipped:
            // one step per quarter cell of travel.
            let steps = ((dist / (self.grid.cell_size_m * 0.25)).ceil() as usize).max(1);
            for s in 1..=steps {
                let frac = s as f64 / steps as f64;
                let (px, py) = (x + dx * frac, y + dy * frac);
                let at_s = t + leg_s * frac;
                if at_s >= horizon_s {
                    return;
                }
                let c = self.grid.cell_at(px, py);
                if c != cell {
                    out.push(AttachmentEvent {
                        at: SimTime::from_nanos((at_s * 1e9) as u64),
                        client,
                        from_cell: cell,
                        to_cell: c,
                    });
                    cell = c;
                }
            }
            x = wx;
            y = wy;
            t += leg_s + Self::uniform(&mut rng, self.pause_s.0, self.pause_s.1);
        }
    }
}

impl MobilityModel for RandomWaypoint {
    fn name(&self) -> &str {
        "random-waypoint"
    }

    fn n_clients(&self) -> usize {
        self.n_clients
    }

    fn initial_cell(&self, client: usize) -> usize {
        self.initial[client]
    }

    fn events(&mut self, horizon: Duration) -> Vec<AttachmentEvent> {
        let mut out = Vec::new();
        for client in 0..self.n_clients {
            self.walk_client(client, horizon, &mut out);
        }
        out.sort_by_key(|e| (e.at, e.client));
        out
    }
}

/// Trace-driven mobility: an explicit hop list.
pub struct CellHops {
    initial: Vec<usize>,
    hops: Vec<AttachmentEvent>,
}

impl CellHops {
    /// Builds a trace from initial attachments and `(at, client, to_cell)`
    /// hops. `from_cell` is derived by replaying the trace in time order.
    ///
    /// # Panics
    /// Panics if a hop names an unknown client.
    pub fn new(initial: Vec<usize>, hops: &[(SimTime, usize, usize)]) -> CellHops {
        let mut sorted: Vec<(SimTime, usize, usize)> = hops.to_vec();
        sorted.sort_by_key(|&(at, client, _)| (at, client));
        let mut current = initial.clone();
        let hops = sorted
            .into_iter()
            .map(|(at, client, to_cell)| {
                assert!(client < current.len(), "hop for unknown client {client}");
                let from_cell = current[client];
                current[client] = to_cell;
                AttachmentEvent { at, client, from_cell, to_cell }
            })
            .collect();
        CellHops { initial, hops }
    }
}

impl MobilityModel for CellHops {
    fn name(&self) -> &str {
        "cell-hops"
    }

    fn n_clients(&self) -> usize {
        self.initial.len()
    }

    fn initial_cell(&self, client: usize) -> usize {
        self.initial[client]
    }

    fn events(&mut self, horizon: Duration) -> Vec<AttachmentEvent> {
        let end = SimTime::ZERO + horizon;
        self.hops.iter().copied().filter(|e| e.at < end).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_geometry() {
        let g = CellGrid::new(3, 2, 100.0);
        assert_eq!(g.n_cells(), 6);
        assert_eq!(g.width_m(), 300.0);
        assert_eq!(g.height_m(), 200.0);
        assert_eq!(g.cell_at(50.0, 50.0), 0);
        assert_eq!(g.cell_at(250.0, 150.0), 5);
        // Clamped at the borders.
        assert_eq!(g.cell_at(-1.0, -1.0), 0);
        assert_eq!(g.cell_at(1e9, 1e9), 5);
        assert_eq!(g.center_of(4), (150.0, 150.0));
    }

    #[test]
    fn waypoint_is_deterministic_per_seed() {
        let grid = CellGrid::new(3, 3, 200.0);
        let mut a = RandomWaypoint::new(grid, 4, 42);
        let mut b = RandomWaypoint::new(grid, 4, 42);
        let ea = a.events(Duration::from_secs(300));
        let eb = b.events(Duration::from_secs(300));
        assert_eq!(ea, eb, "same seed, same stream");
        assert!(!ea.is_empty(), "vehicular speeds over 300 s must cross cells");
        let mut c = RandomWaypoint::new(grid, 4, 43);
        assert_ne!(ea, c.events(Duration::from_secs(300)), "seeds matter");
    }

    #[test]
    fn waypoint_events_are_sorted_chained_and_in_range() {
        let grid = CellGrid::new(4, 2, 150.0);
        let mut m = RandomWaypoint::new(grid, 3, 7);
        let horizon = Duration::from_secs(600);
        let events = m.events(horizon);
        let mut current: Vec<usize> = (0..3).map(|c| m.initial_cell(c)).collect();
        let mut last = SimTime::ZERO;
        for e in &events {
            assert!(e.at >= last, "sorted by time");
            assert!(e.at < SimTime::ZERO + horizon);
            assert!(e.to_cell < grid.n_cells());
            assert_eq!(e.from_cell, current[e.client], "hops chain per client");
            assert_ne!(e.from_cell, e.to_cell);
            current[e.client] = e.to_cell;
            last = e.at;
        }
    }

    #[test]
    fn cell_hops_replay_in_order() {
        let mut m = CellHops::new(
            vec![0, 1],
            &[
                (SimTime::from_secs(20), 0, 2),
                (SimTime::from_secs(5), 0, 1),
                (SimTime::from_secs(10), 1, 0),
            ],
        );
        let ev = m.events(Duration::from_secs(15));
        assert_eq!(ev.len(), 2, "horizon cuts the t=20 hop");
        assert_eq!(
            ev[0],
            AttachmentEvent { at: SimTime::from_secs(5), client: 0, from_cell: 0, to_cell: 1 }
        );
        assert_eq!(
            ev[1],
            AttachmentEvent { at: SimTime::from_secs(10), client: 1, from_cell: 1, to_cell: 0 }
        );
        // Repeated calls replay identically.
        assert_eq!(m.events(Duration::from_secs(15)), ev);
    }
}

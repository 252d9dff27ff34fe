//! `desim` — deterministic discrete-event simulation kernel.
//!
//! This crate is the foundation of the `transparent-edge-rs` reproduction: it
//! provides simulated time, a stable-ordered event queue, a seedable PRNG with
//! the distribution samplers needed by the latency models, and the summary
//! statistics (median / percentiles) used to report experiment results.
//!
//! Everything here is deterministic: the same seed and the same sequence of
//! calls produce bit-identical results on every platform, which the test
//! suites of the higher-level crates rely on.
//!
//! # Quick example
//!
//! ```
//! use desim::{Engine, SimTime, Duration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine: Engine<Ev> = Engine::new();
//! engine.schedule_in(Duration::from_millis(5), Ev::Ping(1));
//! engine.schedule_in(Duration::from_millis(2), Ev::Ping(2));
//!
//! let mut seen = Vec::new();
//! while let Some((t, ev)) = engine.pop() {
//!     seen.push((t, ev));
//! }
//! assert_eq!(seen[0].0, SimTime::from_millis(2));
//! assert!(matches!(seen[0].1, Ev::Ping(2)));
//! ```

#![warn(missing_docs)]

pub mod calendar;
pub mod dist;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wheel;

pub use calendar::EventQueue;
pub use dist::{Constant, Empirical, Exponential, LogNormal, Normal, Sample, Shifted, Uniform};
pub use engine::Engine;
pub use fault::{FaultInjector, FaultPlan, RetryPolicy};
pub use hash::{FastMap, FastSet};
pub use queue::NaiveEventQueue;
pub use rng::SimRng;
pub use stats::{LogHistogram, Summary};
pub use time::{fmt_duration, Duration, SimTime};
pub use wheel::TimerWheel;

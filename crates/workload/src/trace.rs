//! Synthetic bigFlows-like trace generation.

use desim::{Duration, Exponential, Sample, SimRng, SimTime, Uniform};

/// Trace generation parameters. Defaults reproduce the paper's filtered
/// bigFlows statistics.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Number of distinct services (destination addresses).
    pub n_services: usize,
    /// Total number of requests.
    pub n_requests: usize,
    /// Minimum requests per service (the paper's filter threshold).
    pub min_per_service: usize,
    /// Trace length.
    pub duration: Duration,
    /// Number of client hosts issuing requests (the 20 Raspberry Pis).
    pub n_clients: usize,
    /// Zipf-like skew exponent of the request distribution.
    pub skew: f64,
    /// Mean of the exponential conversation-start offset (small ⇒
    /// deployments pile up early, as in Fig. 10).
    pub start_mean_secs: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            n_services: 42,
            n_requests: 1708,
            min_per_service: 20,
            duration: Duration::from_secs(300),
            n_clients: 20,
            skew: 0.9,
            start_mean_secs: 8.0,
        }
    }
}

impl TraceConfig {
    /// The chaos-experiment workload: small enough to replay twice per run
    /// (determinism check) under fault injection, large enough that every
    /// failure mode fires at a ~10% per-phase rate.
    pub fn chaos() -> TraceConfig {
        TraceConfig {
            n_services: 12,
            n_requests: 360,
            min_per_service: 10,
            duration: Duration::from_secs(180),
            ..TraceConfig::default()
        }
    }

    /// A shrunk chaos workload for CI smoke runs: seconds, not minutes.
    pub fn chaos_smoke() -> TraceConfig {
        TraceConfig {
            n_services: 6,
            n_requests: 90,
            min_per_service: 8,
            duration: Duration::from_secs(90),
            ..TraceConfig::default()
        }
    }
}

/// One request in the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Arrival time (when the client opens the connection).
    pub at: SimTime,
    /// Service index (`0..n_services`).
    pub service: usize,
    /// Client index (`0..n_clients`).
    pub client: usize,
}

/// A generated trace, sorted by arrival time.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The configuration it was generated from.
    pub config: TraceConfig,
    /// Requests in time order.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Generates a trace. Identical `(config, seed)` pairs generate identical
    /// traces.
    pub fn generate(config: TraceConfig, seed: u64) -> Trace {
        assert!(config.n_services > 0 && config.n_clients > 0);
        assert!(
            config.n_requests >= config.n_services * config.min_per_service,
            "not enough requests to give every service its minimum"
        );
        let mut rng = SimRng::new(seed);
        let counts = request_counts(&config);
        debug_assert_eq!(counts.iter().sum::<usize>(), config.n_requests);

        let start_dist = Exponential::with_mean(config.start_mean_secs);
        let horizon = config.duration.as_secs_f64();
        let mut requests = Vec::with_capacity(config.n_requests);
        for (service, &count) in counts.iter().enumerate() {
            // Conversation start: early-biased; the remaining requests of the
            // conversation spread uniformly to the end of the trace.
            let start = start_dist.sample(&mut rng).min(horizon * 0.8);
            let span = Uniform::new(start, horizon);
            let mut times = Vec::with_capacity(count);
            times.push(start);
            for _ in 1..count {
                times.push(span.sample(&mut rng));
            }
            for at in times {
                requests.push(Request {
                    at: SimTime::from_nanos((at * 1e9) as u64),
                    service,
                    client: rng.below(config.n_clients as u64) as usize,
                });
            }
        }
        requests.sort_by_key(|r| (r.at, r.service, r.client));
        Trace { config, requests }
    }

    /// Requests per service (Fig. 9's distribution).
    pub fn per_service_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.n_services];
        for r in &self.requests {
            counts[r.service] += 1;
        }
        counts
    }

    /// First-request (deployment) time per service, in service order
    /// (Fig. 10's distribution).
    pub fn deployment_times(&self) -> Vec<SimTime> {
        let mut firsts = vec![SimTime::MAX; self.config.n_services];
        for r in &self.requests {
            if r.at < firsts[r.service] {
                firsts[r.service] = r.at;
            }
        }
        firsts
    }

    /// Per-second histogram of request arrivals over the trace.
    pub fn requests_per_second(&self) -> Vec<u64> {
        let secs = self.config.duration.as_nanos().div_ceil(1_000_000_000) as usize;
        let mut bins = vec![0u64; secs];
        for r in &self.requests {
            let b = (r.at.as_nanos() / 1_000_000_000) as usize;
            if b < bins.len() {
                bins[b] += 1;
            }
        }
        bins
    }

    /// Per-second histogram of deployments (first requests).
    pub fn deployments_per_second(&self) -> Vec<u64> {
        let secs = self.config.duration.as_nanos().div_ceil(1_000_000_000) as usize;
        let mut bins = vec![0u64; secs];
        for t in self.deployment_times() {
            let b = (t.as_nanos() / 1_000_000_000) as usize;
            if b < bins.len() {
                bins[b] += 1;
            }
        }
        bins
    }
}

/// Parameters of the bursty workload used by the scheduler tournament:
/// periodic request bursts slam one (rotating) hot service hard enough to
/// saturate a single instance, over a uniform background trickle that keeps
/// every service deployed. Unlike the bigFlows-style trace — whose load is
/// spread thin — a burst makes per-instance queueing and horizontal scaling
/// *matter*: schedulers that ignore load (proximity, random) pile the burst
/// onto one replica while load-aware ones spread it.
#[derive(Clone, Debug)]
pub struct BurstConfig {
    /// Number of distinct services.
    pub n_services: usize,
    /// Number of client hosts issuing requests.
    pub n_clients: usize,
    /// Number of bursts; burst `b` targets service `b % n_services`.
    pub(crate) bursts: usize,
    /// Requests per burst, arriving within one [`burst_width`](Self::burst_width).
    pub(crate) burst_size: usize,
    /// Window the burst's requests spread across (small ⇒ deep queues).
    pub(crate) burst_width: Duration,
    /// Gap between consecutive burst starts.
    pub gap: Duration,
    /// Warm-up before the first burst (lets the trickle deploy everything).
    pub(crate) warmup: Duration,
    /// Mean background request rate (per second, across all services).
    pub(crate) background_rps: f64,
    /// Trace length.
    pub duration: Duration,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig::full()
    }
}

impl BurstConfig {
    /// The tournament workload: 6 bursts of 48 requests in 400 ms — a
    /// ~120 req/s spike against replicas that serve 100 req/s each — every
    /// 5 s, over a 4 req/s trickle. The client pool is wide (96) so most
    /// burst arrivals are *fresh* flows: placement is decided by the
    /// scheduler under load, not replayed from flow memory.
    pub fn full() -> BurstConfig {
        BurstConfig {
            n_services: 4,
            n_clients: 96,
            bursts: 6,
            burst_size: 48,
            burst_width: Duration::from_millis(400),
            gap: Duration::from_secs(5),
            warmup: Duration::from_secs(2),
            background_rps: 4.0,
            duration: Duration::from_secs(36),
        }
    }

    /// A shrunk burst workload for CI smoke runs.
    pub fn smoke() -> BurstConfig {
        BurstConfig {
            bursts: 2,
            burst_size: 32,
            duration: Duration::from_secs(14),
            ..BurstConfig::full()
        }
    }

    /// Generates the bursty trace. Identical `(config, seed)` pairs generate
    /// identical traces. The embedded [`TraceConfig`] describes the result
    /// (so the histogram helpers work), not generator knobs.
    pub fn generate(self, seed: u64) -> Trace {
        assert!(self.n_services > 0 && self.n_clients > 0);
        let mut rng = SimRng::new(seed);
        let mut requests = Vec::new();
        let horizon = self.duration.as_secs_f64();
        for b in 0..self.bursts {
            let start = self.warmup + self.gap.mul_f64(b as f64);
            let window = Uniform::new(0.0, self.burst_width.as_secs_f64());
            for _ in 0..self.burst_size {
                let at = start + Duration::from_secs_f64(window.sample(&mut rng));
                requests.push(Request {
                    at: SimTime::ZERO + at,
                    service: b % self.n_services,
                    client: rng.below(self.n_clients as u64) as usize,
                });
            }
        }
        let n_background = (self.background_rps * horizon) as usize;
        let span = Uniform::new(0.0, horizon);
        for _ in 0..n_background {
            requests.push(Request {
                at: SimTime::from_nanos((span.sample(&mut rng) * 1e9) as u64),
                service: rng.below(self.n_services as u64) as usize,
                client: rng.below(self.n_clients as u64) as usize,
            });
        }
        requests.sort_by_key(|r| (r.at, r.service, r.client));
        let config = TraceConfig {
            n_services: self.n_services,
            n_requests: requests.len(),
            min_per_service: 0,
            duration: self.duration,
            n_clients: self.n_clients,
            skew: 0.0,
            start_mean_secs: self.warmup.as_secs_f64(),
        };
        Trace { config, requests }
    }
}

/// Splits `n_requests` over services: Zipf-like weights with a hard floor of
/// `min_per_service`, summing exactly to `n_requests`.
fn request_counts(config: &TraceConfig) -> Vec<usize> {
    let n = config.n_services;
    let floor = config.min_per_service;
    let total = config.n_requests;
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(config.skew)).collect();
    let wsum: f64 = weights.iter().sum();
    let extra = total - n * floor;
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| floor + (extra as f64 * w / wsum) as usize)
        .collect();
    // Distribute the rounding remainder to the largest services.
    let mut assigned: usize = counts.iter().sum();
    let mut i = 0;
    while assigned < total {
        counts[i % n] += 1;
        assigned += 1;
        i += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_trace_matches_paper_aggregates() {
        let t = Trace::generate(TraceConfig::default(), 7);
        assert_eq!(t.requests.len(), 1708);
        let counts = t.per_service_counts();
        assert_eq!(counts.len(), 42);
        assert_eq!(counts.iter().sum::<usize>(), 1708);
        assert!(counts.iter().all(|&c| c >= 20), "≥20 requests per service");
        // Heavy tail: the busiest service clearly dominates the floor.
        assert!(*counts.iter().max().unwrap() > 60);
    }

    #[test]
    fn trace_is_time_sorted_and_within_duration() {
        let t = Trace::generate(TraceConfig::default(), 3);
        assert!(t.requests.windows(2).all(|w| w[0].at <= w[1].at));
        let horizon = SimTime::from_secs(300);
        assert!(t.requests.iter().all(|r| r.at <= horizon));
        assert!(t.requests.iter().all(|r| r.client < 20));
    }

    #[test]
    fn deployments_cluster_early() {
        let t = Trace::generate(TraceConfig::default(), 11);
        let firsts = t.deployment_times();
        assert_eq!(firsts.len(), 42);
        let within_first_minute = firsts
            .iter()
            .filter(|&&f| f <= SimTime::from_secs(60))
            .count();
        // Fig. 10: most deployments happen at the start of the trace.
        assert!(
            within_first_minute * 10 >= 42 * 9,
            "{within_first_minute}/42 within first minute"
        );
        let peak = *t.deployments_per_second().iter().max().unwrap();
        assert!((2..=12).contains(&peak), "peak {peak}/s (paper: up to ~8)");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Trace::generate(TraceConfig::default(), 5);
        let b = Trace::generate(TraceConfig::default(), 5);
        assert_eq!(a.requests, b.requests);
        let c = Trace::generate(TraceConfig::default(), 6);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn histograms_account_for_everything() {
        let t = Trace::generate(TraceConfig::default(), 9);
        assert_eq!(t.requests_per_second().iter().sum::<u64>(), 1708);
        assert_eq!(t.deployments_per_second().iter().sum::<u64>(), 42);
    }

    #[test]
    fn custom_configs_work() {
        let cfg = TraceConfig {
            n_services: 5,
            n_requests: 200,
            min_per_service: 10,
            duration: Duration::from_secs(60),
            n_clients: 3,
            ..TraceConfig::default()
        };
        let t = Trace::generate(cfg, 1);
        assert_eq!(t.requests.len(), 200);
        assert_eq!(t.per_service_counts().len(), 5);
        assert!(t.per_service_counts().iter().all(|&c| c >= 10));
    }

    #[test]
    fn chaos_configs_are_feasible_and_deterministic() {
        for cfg in [TraceConfig::chaos(), TraceConfig::chaos_smoke()] {
            let a = Trace::generate(cfg.clone(), 7);
            let b = Trace::generate(cfg.clone(), 7);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.requests.len(), cfg.n_requests);
            assert_eq!(a.per_service_counts().len(), cfg.n_services);
            assert!(a
                .per_service_counts()
                .iter()
                .all(|&c| c >= cfg.min_per_service));
        }
    }

    #[test]
    fn bursty_trace_is_deterministic_and_bursty() {
        let cfg = BurstConfig::full();
        let a = cfg.clone().generate(7);
        let b = cfg.clone().generate(7);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, cfg.clone().generate(8).requests);
        assert!(a.requests.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.requests.iter().all(|r| r.service < cfg.n_services));
        assert!(a.requests.iter().all(|r| r.client < cfg.n_clients));
        // The peak second carries a full burst; the background alone is an
        // order of magnitude below it.
        let peak = *a.requests_per_second().iter().max().unwrap();
        assert!(peak as usize >= cfg.burst_size, "peak {peak}/s");
        // Every service sees traffic (bursts rotate + trickle covers all).
        assert!(a.per_service_counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn bursty_smoke_is_a_subset_scale() {
        let t = BurstConfig::smoke().generate(7);
        let full = BurstConfig::full().generate(7);
        assert!(t.requests.len() < full.requests.len());
        assert!(t.requests.iter().all(|r| r.at <= SimTime::from_secs(14)));
    }

    #[test]
    #[should_panic(expected = "not enough requests")]
    fn infeasible_config_rejected() {
        Trace::generate(
            TraceConfig {
                n_services: 42,
                n_requests: 100,
                ..TraceConfig::default()
            },
            1,
        );
    }
}

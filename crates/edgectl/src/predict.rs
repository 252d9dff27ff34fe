//! Proactive deployment prediction.
//!
//! The paper's introduction concedes that "prediction algorithms could be
//! used to pre-deploy the required services just in time", that perfect
//! prediction is impossible, and that on-demand deployment is the safety
//! net; the discussion closes with "more so when combined with good
//! prediction for proactive deployment". This module provides that hook: a
//! [`DeploymentPredictor`] observes the request stream and nominates
//! services to pre-deploy, and the testbed's proactive experiment measures
//! how prediction quality trades pre-deployments against first-request
//! latency.

use desim::{Duration, FastMap, SimTime};
use netsim::ServiceAddr;
use std::collections::VecDeque;

/// Observes requests and nominates services worth pre-deploying.
pub trait DeploymentPredictor: Send {
    /// Records one observed request.
    fn observe(&mut self, service: ServiceAddr, now: SimTime);

    /// Services predicted to be needed soon (deduplicated, best first).
    /// Called periodically; implementations should be cheap.
    fn predict(&mut self, now: SimTime) -> Vec<ServiceAddr>;
}

/// Predicts that recently seen services will be requested again: keeps each
/// observed service "warm" for a window after its last request. Models the
/// common keep-alive heuristic.
pub(crate) struct RecencyPredictor {
    window: Duration,
    last_seen: FastMap<ServiceAddr, SimTime>,
}

impl RecencyPredictor {
    /// Predicts re-use within `window` of the last request.
    pub fn new(window: Duration) -> RecencyPredictor {
        RecencyPredictor {
            window,
            last_seen: FastMap::default(),
        }
    }
}

impl DeploymentPredictor for RecencyPredictor {
    fn observe(&mut self, service: ServiceAddr, now: SimTime) {
        self.last_seen.insert(service, now);
    }

    fn predict(&mut self, now: SimTime) -> Vec<ServiceAddr> {
        let window = self.window;
        self.last_seen.retain(|_, t| now.saturating_since(*t) < window);
        let mut v: Vec<(ServiceAddr, SimTime)> =
            self.last_seen.iter().map(|(s, t)| (*s, *t)).collect();
        v.sort_by_key(|(s, t)| (std::cmp::Reverse(*t), *s));
        v.into_iter().map(|(s, _)| s).collect()
    }
}

/// Predicts the overall most-requested services (top-k by frequency over a
/// sliding history). Models popularity-based pre-deployment.
pub(crate) struct FrequencyPredictor {
    history: VecDeque<(SimTime, ServiceAddr)>,
    horizon: Duration,
    top_k: usize,
}

impl FrequencyPredictor {
    /// Counts requests within `horizon` and nominates the `top_k` busiest.
    pub fn new(horizon: Duration, top_k: usize) -> FrequencyPredictor {
        FrequencyPredictor {
            history: VecDeque::new(),
            horizon,
            top_k,
        }
    }
}

impl DeploymentPredictor for FrequencyPredictor {
    fn observe(&mut self, service: ServiceAddr, now: SimTime) {
        self.history.push_back((now, service));
    }

    fn predict(&mut self, now: SimTime) -> Vec<ServiceAddr> {
        while let Some(&(t, _)) = self.history.front() {
            if now.saturating_since(t) >= self.horizon {
                self.history.pop_front();
            } else {
                break;
            }
        }
        let mut counts: FastMap<ServiceAddr, usize> = FastMap::default();
        for &(_, s) in &self.history {
            *counts.entry(s).or_default() += 1;
        }
        let mut v: Vec<(ServiceAddr, usize)> = counts.into_iter().collect();
        v.sort_by_key(|&(s, c)| (std::cmp::Reverse(c), s));
        v.truncate(self.top_k);
        v.into_iter().map(|(s, _)| s).collect()
    }
}

/// First-order Markov predictor over the request stream: after observing
/// service *A*, predicts the services that historically followed *A*.
/// Models sequence patterns (e.g. an app that always calls auth → api →
/// media in order).
pub(crate) struct MarkovPredictor {
    transitions: FastMap<ServiceAddr, FastMap<ServiceAddr, usize>>,
    last: Option<ServiceAddr>,
    top_k: usize,
}

impl MarkovPredictor {
    /// Predicts the `top_k` most likely successors of the last request.
    pub fn new(top_k: usize) -> MarkovPredictor {
        MarkovPredictor {
            transitions: FastMap::default(),
            last: None,
            top_k,
        }
    }
}

impl DeploymentPredictor for MarkovPredictor {
    fn observe(&mut self, service: ServiceAddr, _now: SimTime) {
        if let Some(prev) = self.last {
            *self
                .transitions
                .entry(prev)
                .or_default()
                .entry(service)
                .or_default() += 1;
        }
        self.last = Some(service);
    }

    fn predict(&mut self, _now: SimTime) -> Vec<ServiceAddr> {
        let Some(last) = self.last else {
            return Vec::new();
        };
        let Some(next) = self.transitions.get(&last) else {
            return Vec::new();
        };
        let mut v: Vec<(ServiceAddr, usize)> = next.iter().map(|(s, c)| (*s, *c)).collect();
        v.sort_by_key(|&(s, c)| (std::cmp::Reverse(c), s));
        v.truncate(self.top_k);
        v.into_iter().map(|(s, _)| s).collect()
    }
}

/// Names [`predictor_by_name`] accepts, in documentation order.
pub(crate) const KNOWN_PREDICTORS: &[&str] = &["none", "recency", "frequency", "markov"];

/// Loads a predictor by configured name; `"none"` is no predictor, pure
/// reactive on-demand deployment (the paper's baseline). Shares the typed
/// [`UnknownComponent`](crate::scheduler::UnknownComponent) error with
/// [`scheduler_by_name`](crate::scheduler::scheduler_by_name), so both
/// registries report unknown names (and the accepted list) identically.
pub fn predictor_by_name(
    name: &str,
) -> Result<Option<Box<dyn DeploymentPredictor>>, crate::scheduler::UnknownComponent> {
    match name {
        "none" => Ok(None),
        "recency" => Ok(Some(Box::new(RecencyPredictor::new(Duration::from_secs(
            60,
        ))))),
        "frequency" => Ok(Some(Box::new(FrequencyPredictor::new(
            Duration::from_secs(120),
            8,
        )))),
        "markov" => Ok(Some(Box::new(MarkovPredictor::new(3)))),
        _ => Err(crate::scheduler::UnknownComponent {
            kind: "predictor",
            requested: name.to_owned(),
            known: KNOWN_PREDICTORS,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::addr::Ipv4Addr;

    fn svc(i: u8) -> ServiceAddr {
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, i), 80)
    }

    #[test]
    fn recency_keeps_within_window_only() {
        let mut p = RecencyPredictor::new(Duration::from_secs(10));
        p.observe(svc(1), SimTime::from_secs(0));
        p.observe(svc(2), SimTime::from_secs(5));
        let out = p.predict(SimTime::from_secs(8));
        assert_eq!(out, vec![svc(2), svc(1)], "most recent first");
        let out = p.predict(SimTime::from_secs(12));
        assert_eq!(out, vec![svc(2)], "svc 1 aged out");
        assert!(p.predict(SimTime::from_secs(30)).is_empty());
    }

    #[test]
    fn frequency_ranks_by_count() {
        let mut p = FrequencyPredictor::new(Duration::from_secs(100), 2);
        for _ in 0..5 {
            p.observe(svc(1), SimTime::from_secs(1));
        }
        for _ in 0..3 {
            p.observe(svc(2), SimTime::from_secs(2));
        }
        p.observe(svc(3), SimTime::from_secs(3));
        let out = p.predict(SimTime::from_secs(4));
        assert_eq!(out, vec![svc(1), svc(2)], "top-2 by frequency");
    }

    #[test]
    fn frequency_slides_its_horizon() {
        let mut p = FrequencyPredictor::new(Duration::from_secs(10), 5);
        p.observe(svc(1), SimTime::from_secs(0));
        p.observe(svc(2), SimTime::from_secs(9));
        assert_eq!(p.predict(SimTime::from_secs(9)).len(), 2);
        assert_eq!(p.predict(SimTime::from_secs(15)), vec![svc(2)]);
    }

    #[test]
    fn markov_learns_successions() {
        let mut p = MarkovPredictor::new(2);
        // Pattern: 1 → 2 → 3, repeated.
        for _ in 0..4 {
            p.observe(svc(1), SimTime::ZERO);
            p.observe(svc(2), SimTime::ZERO);
            p.observe(svc(3), SimTime::ZERO);
        }
        p.observe(svc(1), SimTime::ZERO);
        assert_eq!(p.predict(SimTime::ZERO), vec![svc(2)], "2 follows 1");
        p.observe(svc(2), SimTime::ZERO);
        assert_eq!(p.predict(SimTime::ZERO), vec![svc(3)], "3 follows 2");
    }

    #[test]
    fn markov_empty_until_pattern_exists() {
        let mut p = MarkovPredictor::new(2);
        assert!(p.predict(SimTime::ZERO).is_empty());
        p.observe(svc(1), SimTime::ZERO);
        assert!(p.predict(SimTime::ZERO).is_empty(), "no successor known yet");
    }

    #[test]
    fn loading_by_name() {
        assert!(
            predictor_by_name("none").unwrap().is_none(),
            "`none` is no predictor"
        );
        for name in &KNOWN_PREDICTORS[1..] {
            assert!(predictor_by_name(name).unwrap().is_some(), "{name}");
        }
        let err = predictor_by_name("crystal-ball").err().unwrap();
        assert_eq!(err.kind, "predictor");
        assert_eq!(err.requested, "crystal-ball");
        let msg = err.to_string();
        assert!(msg.contains("unknown predictor `crystal-ball`"), "{msg}");
        for name in KNOWN_PREDICTORS {
            assert!(msg.contains(name), "error must list `{name}`: {msg}");
        }
    }
}

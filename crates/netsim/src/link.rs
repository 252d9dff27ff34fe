//! Link latency/bandwidth models.
//!
//! Each link in the emulated topology carries a propagation delay, a
//! bandwidth, and optional jitter. The time for a frame to traverse a link is
//! `propagation + size/bandwidth + jitter` — enough fidelity to reproduce the
//! timing behaviour of the paper's 1 Gbps access / 10 Gbps backbone testbed.

use desim::{Duration, Sample, SimRng, Uniform};

/// Static description of a link's characteristics.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub propagation: Duration,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Maximum uniform jitter added per traversal (0 disables).
    pub jitter_max: Duration,
}

impl LinkSpec {
    /// A gigabit-Ethernet-like LAN link with the given propagation delay.
    pub fn gigabit(propagation: Duration) -> LinkSpec {
        LinkSpec {
            propagation,
            bandwidth_bps: 1_000_000_000,
            jitter_max: Duration::from_micros(50),
        }
    }

    /// A WAN path toward the cloud: high latency, shared bandwidth.
    pub fn wan(propagation: Duration, bandwidth_bps: u64) -> LinkSpec {
        LinkSpec {
            propagation,
            bandwidth_bps,
            jitter_max: Duration::from_millis(2),
        }
    }

    /// An intra-host link (veth/OVS patch): sub-microsecond, no jitter.
    pub fn local() -> LinkSpec {
        LinkSpec {
            propagation: Duration::from_micros(5),
            bandwidth_bps: 40_000_000_000,
            jitter_max: Duration::ZERO,
        }
    }
}

/// A link instance: a [`LinkSpec`] with its own jitter stream.
#[derive(Clone, Debug)]
pub struct Link {
    spec: LinkSpec,
}

impl Link {
    /// Creates a link from its spec.
    pub fn new(spec: LinkSpec) -> Link {
        Link { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Pure serialization delay for `bytes` at this link's bandwidth.
    pub fn serialization_delay(&self, bytes: usize) -> Duration {
        let bits = bytes as f64 * 8.0;
        Duration::from_secs_f64(bits / self.spec.bandwidth_bps as f64)
    }

    /// Total one-way traversal time for a frame of `bytes`, drawing jitter
    /// from `rng`.
    pub fn traversal_time(&self, bytes: usize, rng: &mut SimRng) -> Duration {
        let base = self.spec.propagation + self.serialization_delay(bytes);
        if self.spec.jitter_max.is_zero() {
            base
        } else {
            let jitter = Uniform::new(0.0, self.spec.jitter_max.as_secs_f64());
            base + jitter.sample_duration(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_with_size_and_bandwidth() {
        let gig = Link::new(LinkSpec {
            propagation: Duration::ZERO,
            bandwidth_bps: 1_000_000_000,
            jitter_max: Duration::ZERO,
        });
        // 1250 bytes = 10_000 bits = 10 us at 1 Gbps.
        assert_eq!(gig.serialization_delay(1250), Duration::from_micros(10));
        let ten = Link::new(LinkSpec {
            bandwidth_bps: 10_000_000_000,
            ..gig.spec().clone()
        });
        assert_eq!(ten.serialization_delay(1250), Duration::from_micros(1));
    }

    #[test]
    fn traversal_includes_propagation() {
        let l = Link::new(LinkSpec {
            propagation: Duration::from_millis(1),
            bandwidth_bps: 1_000_000_000,
            jitter_max: Duration::ZERO,
        });
        let mut rng = SimRng::new(1);
        let t = l.traversal_time(1250, &mut rng);
        assert_eq!(t, Duration::from_millis(1) + Duration::from_micros(10));
    }

    #[test]
    fn jitter_bounded_and_varies() {
        let l = Link::new(LinkSpec {
            propagation: Duration::from_micros(100),
            bandwidth_bps: 1_000_000_000,
            jitter_max: Duration::from_micros(50),
        });
        let mut rng = SimRng::new(7);
        let base = Duration::from_micros(100) + l.serialization_delay(100);
        let samples: Vec<Duration> = (0..100).map(|_| l.traversal_time(100, &mut rng)).collect();
        assert!(samples.iter().all(|&t| t >= base));
        assert!(samples
            .iter()
            .all(|&t| t <= base + Duration::from_micros(50)));
        assert!(samples.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let local = Link::new(LinkSpec::local());
        let gig = Link::new(LinkSpec::gigabit(Duration::from_micros(200)));
        let wan = Link::new(LinkSpec::wan(Duration::from_millis(20), 100_000_000));
        let mut rng = SimRng::new(3);
        let tl = local.traversal_time(1500, &mut rng);
        let tg = gig.traversal_time(1500, &mut rng);
        let tw = wan.traversal_time(1500, &mut rng);
        assert!(tl < tg && tg < tw);
    }
}

//! Client-side measurement: `timecurl` semantics.
//!
//! The paper measures with a curl wrapper: `time_total` includes everything
//! from the moment curl starts establishing the TCP connection until it has
//! received the full HTTP response. [`RequestTiming`] captures the milestones
//! the emulated client observes and derives the same quantity.

use desim::{Duration, SimTime};

/// Milestones of one emulated HTTP request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestTiming {
    /// TCP connect started (SYN sent) — `time_total`'s clock starts here.
    pub connect_start: SimTime,
    /// TCP handshake completed (ACK sent after SYN-ACK).
    pub connected: Option<SimTime>,
    /// First response byte received (`time_starttransfer` in curl terms).
    pub first_byte: Option<SimTime>,
    /// Full response received — `time_total`'s clock stops here.
    pub complete: Option<SimTime>,
}

impl RequestTiming {
    /// Starts a timing record at the SYN send instant.
    pub fn started(connect_start: SimTime) -> RequestTiming {
        RequestTiming {
            connect_start,
            connected: None,
            first_byte: None,
            complete: None,
        }
    }

    /// curl's `time_total`: connect start → response complete.
    pub fn time_total(&self) -> Option<Duration> {
        Some(self.complete? - self.connect_start)
    }

    /// curl's `time_connect`: connect start → handshake done.
    pub fn time_connect(&self) -> Option<Duration> {
        Some(self.connected? - self.connect_start)
    }

    /// curl's `time_starttransfer`: connect start → first response byte.
    pub fn time_starttransfer(&self) -> Option<Duration> {
        Some(self.first_byte? - self.connect_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milestones_derive_curl_metrics() {
        let mut t = RequestTiming::started(SimTime::from_millis(1000));
        assert_eq!(t.time_total(), None);
        t.connected = Some(SimTime::from_millis(1002));
        t.first_byte = Some(SimTime::from_millis(1003));
        t.complete = Some(SimTime::from_millis(1004));
        assert_eq!(t.time_connect(), Some(Duration::from_millis(2)));
        assert_eq!(t.time_starttransfer(), Some(Duration::from_millis(3)));
        assert_eq!(t.time_total(), Some(Duration::from_millis(4)));
    }

    #[test]
    fn waiting_time_shows_up_in_time_total() {
        // A request held at the controller for on-demand deployment simply
        // sees a long connect phase — exactly how the paper's client
        // perceives with-waiting deployment.
        let mut t = RequestTiming::started(SimTime::from_secs(10));
        t.connected = Some(SimTime::from_secs(10) + Duration::from_millis(520));
        t.first_byte = Some(SimTime::from_secs(10) + Duration::from_millis(521));
        t.complete = Some(SimTime::from_secs(10) + Duration::from_millis(521));
        assert_eq!(t.time_total(), Some(Duration::from_millis(521)));
        assert!(t.time_connect().unwrap() > Duration::from_millis(500));
    }
}

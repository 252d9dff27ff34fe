//! Frame capture: every frame a run puts through a switch, with the
//! simulated instant it crossed (what `e2ebench trace` replays layer by
//! layer).

use desim::SimTime;

/// An in-memory capture of simulated traffic.
#[derive(Clone, Debug, Default)]
pub struct PcapCapture {
    records: Vec<(SimTime, Vec<u8>)>,
}

impl PcapCapture {
    /// Creates an empty capture.
    pub fn new() -> PcapCapture {
        PcapCapture::default()
    }

    /// Records raw frame bytes at simulated time `at`.
    pub fn record(&mut self, at: SimTime, frame: &[u8]) {
        self.records.push((at, frame.to_vec()));
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The captured `(timestamp, frame bytes)` records.
    pub fn records(&self) -> &[(SimTime, Vec<u8>)] {
        &self.records
    }
}

//! The paper's quantitative claims, asserted against the reproduction.
//!
//! The claims and their bounds live in one list, `bench::summary::verify_claims`,
//! which `repro summary` prints; each test here asserts that the claim it is
//! named for holds at seeds 7 and 13, so a regression in any layer (runtime
//! model, orchestrator, controller, network) fails the test of the claim it
//! breaks.

use bench::summary::{verify_claims, Claim};
use std::sync::OnceLock;

/// The seeds every claim must hold at.
const SEEDS: [u64; 2] = [7, 13];

/// Asserts that claim `k` (0-based, in `verify_claims` order) holds at
/// every seed. The list is measured once per seed and shared by the tests.
fn holds(k: usize) {
    static CLAIMS: OnceLock<Vec<(u64, Vec<Claim>)>> = OnceLock::new();
    let runs = CLAIMS.get_or_init(|| SEEDS.iter().map(|&seed| (seed, verify_claims(seed))).collect());
    for (seed, claims) in runs {
        assert_eq!(claims.len(), 11, "seed {seed}: the eleven claims of the evaluation");
        let c = &claims[k];
        assert!(c.holds, "seed {seed}: {} — {}: measured {}", c.source, c.statement, c.measured);
    }
}

/// "As low as 0.5 seconds" for an nginx-based service, and "response times
/// of less than one second (with cached Docker images)" for asm, nginx and
/// nginx-py.
#[test]
fn docker_first_request_under_one_second() {
    holds(0);
    holds(1);
}

/// "When deploying to a Kubernetes cluster, it takes significantly longer to
/// start a new service instance — about three seconds" (asm and nginx).
#[test]
fn k8s_scale_up_about_three_seconds() {
    holds(2);
}

/// "The numbers highlight the significant difference between just starting a
/// container via Docker (less than one second) and the overhead of starting
/// the same container on a complex orchestrator like Kubernetes (around
/// three seconds)" — same containerd underneath, so the gap is pure
/// orchestration.
#[test]
fn orchestrator_overhead_dominates() {
    holds(10);
}

/// "Interestingly, there is no notable difference between starting the tiny
/// Assembler web server and the far larger Nginx instance."
#[test]
fn asm_and_nginx_start_alike() {
    holds(3);
}

/// "Creating the containers adds around 100 ms to the response time of the
/// first request" (Fig. 12 vs Fig. 11, Docker).
#[test]
fn create_phase_adds_about_100ms() {
    holds(4);
}

/// "As expected, ResNet takes significantly longer to start; the waiting
/// time alone accounts for more than a fourth of the total time."
#[test]
fn resnet_wait_exceeds_quarter_of_total() {
    holds(5);
}

/// "When pulling the same images from a private container registry located
/// in the same network, pull times improve by about 1.5 to 2 seconds."
#[test]
fn private_registry_saves_one_and_a_half_to_two_seconds() {
    holds(6);
}

/// "While serving a short response message is achieved in about a
/// millisecond, the heavyweight image classification service requires
/// significantly longer" (Fig. 16) — and no notable difference between the
/// two cluster types once running.
#[test]
fn warm_requests_fast_and_cluster_agnostic() {
    holds(7);
}

/// The workload matches the published trace statistics: 1708 requests, 42
/// services, every service ≥ 20 requests, deployments clustered early.
#[test]
fn workload_matches_bigflows_statistics() {
    holds(8);
}

/// Every replay completes without a single connection reset: the
/// port-polling discipline works.
#[test]
fn no_request_ever_hits_a_closed_port() {
    holds(9);
}

//! The two replay drivers: captured frames of a `Testbed` run, and a
//! synthesized session/handover stream for the mobility workload (whose
//! testbed has no capture hook).

use super::build::{c3_controller, mobility_controller, pre_deploy};
use super::plane::Plane;
use super::spans::{set_request, span, Op};
use crate::e2e::controller_config;
use crate::workloads::{Inputs, MobilitySpec, RequestSpec};
use desim::{Duration, SimTime};
use edgectl::{ControllerConfig, EdgeService, HandoverPolicy, IngressId, InstanceState};
use netsim::{Ipv4Addr, MacAddr, PcapCapture, TcpFlags, TcpFrame};
use ovs::{Switch, SwitchConfig};
use std::collections::{HashMap, HashSet};
use testbed::{C3Topology, MultiGnbTopology};

/// Feeds the frames a `Testbed` run captured at its switch, in order, to a
/// fresh switch and controller built with the same configuration.
///
/// `services` are the run's registrations in registration order. The
/// capture does not record ingress ports; they follow from the sender's MAC.
pub fn replay_capture(
    spec: &RequestSpec,
    seed: u64,
    c3: &C3Topology,
    services: &[EdgeService],
    capture: &PcapCapture,
) -> Plane {
    let switch = Switch::new(SwitchConfig {
        datapath_id: 0xC3,
        n_buffers: 1024,
        miss_send_len: 0xffff,
        ports: c3.ovs_ports(),
    });
    let controller = c3_controller(c3, spec.cluster, controller_config(spec));
    let mut plane = Plane::new(vec![switch], controller, seed);
    plane.with_controller(|controller, rng| {
        for svc in services {
            controller.register_service(svc.clone());
            if spec.pre_deploy {
                pre_deploy(controller, svc, 0, rng);
            }
        }
    });

    let mut port_of: HashMap<MacAddr, u32> = c3
        .clients
        .iter()
        .zip(&c3.client_ports)
        .map(|(&node, port)| (c3.topo.node(node).mac, port.0))
        .collect();
    let infrastructure = [(c3.egs, c3.egs_port), (c3.cloud, c3.cloud_port)];
    let server_ports: HashSet<u32> = infrastructure.iter().map(|(_, p)| p.0).collect();
    port_of.extend(infrastructure.map(|(node, port)| (c3.topo.node(node).mac, port.0)));

    // Request id = index of the connection's client-side (ip, port) pair.
    let mut requests: HashMap<(Ipv4Addr, u16), u32> = HashMap::new();
    // Where the replay's own flows send each request. The replayed cluster
    // draws other start-up delays than the recorded one, so now and then a
    // scale-down falls on the other side of a request and every later pod
    // gets another address than it had in the capture: server frames are
    // re-sourced from the instance the replay actually redirected to.
    let mut redirected: Vec<Option<(MacAddr, Ipv4Addr, u16)>> = Vec::new();
    for (at, data) in capture.records() {
        let Ok(mut frame) = TcpFrame::decode(data) else {
            continue;
        };
        let Some(&in_port) = port_of.get(&frame.src_mac) else {
            continue;
        };
        let from_server = server_ports.contains(&in_port);
        let client_side = if from_server {
            (frame.dst_ip, frame.dst_port)
        } else {
            (frame.src_ip, frame.src_port)
        };
        let next = requests.len() as u32;
        let request = *requests.entry(client_side).or_insert(next);
        redirected.resize(requests.len(), None);
        plane.advance(*at);
        plane.flush_request(*at, request);
        learn_redirects(&mut plane, &server_ports, &mut redirected);
        match redirected[request as usize] {
            Some((mac, ip, port))
                if from_server && (ip, port) != (frame.src_ip, frame.src_port) =>
            {
                frame.rewrite_src(mac, ip, port);
                plane.frame(*at, 0, in_port, &frame.encode(), request);
            }
            _ => plane.frame(*at, 0, in_port, data, request),
        }
        learn_redirects(&mut plane, &server_ports, &mut redirected);
    }
    plane.advance(spec.deadline());
    plane.outbox.clear();
    plane
}

/// Drains the frames the switch forwarded, noting for each request the
/// server address its first server-bound frame left for.
fn learn_redirects(
    plane: &mut Plane,
    server_ports: &HashSet<u32>,
    redirected: &mut [Option<(MacAddr, Ipv4Addr, u16)>],
) {
    for fw in plane.outbox.drain(..) {
        let Some(slot) = redirected.get_mut(fw.request as usize) else {
            continue;
        };
        if slot.is_none() && server_ports.contains(&fw.port) {
            if let Ok(f) = TcpFrame::decode(&fw.data) {
                *slot = Some((f.dst_mac, f.dst_ip, f.dst_port));
            }
        }
    }
}

enum Step {
    Open(usize),
    Ping(usize),
    Move(mobility::AttachmentEvent),
}

/// Drives a 16-ingress controller and its switches the way
/// `MobilityTestbed` does, without the network in between: every client
/// opens its session with one SYN, pings once per interval, and every
/// attachment change goes through `handle_attachment_change`. What a switch
/// forwards toward a zone or the cloud is answered on the spot.
pub fn replay_moves(
    spec: &MobilitySpec,
    seed: u64,
    inputs: &Inputs,
    service: &EdgeService,
) -> Plane {
    let Inputs::Moves { initial, events } = inputs else {
        panic!("a request trace holds no moves");
    };
    let net = MultiGnbTopology::build(spec.n_gnbs, spec.n_clients);
    let switches = (0..spec.n_gnbs)
        .map(|g| {
            Switch::new(SwitchConfig {
                datapath_id: 0xC300 + g as u64,
                n_buffers: 1024,
                miss_send_len: 0xffff,
                ports: net.gnb_ports(g),
            })
        })
        .collect();
    let controller = mobility_controller(&net, ControllerConfig::default());
    let mut plane = Plane::new(switches, controller, seed);
    plane.log_frames = true;
    let mut attachment: Vec<usize> = initial.iter().map(|c| c % spec.n_gnbs).collect();
    // Images cached and containers created in every zone; instances run
    // where clients start (`warm_all_zones` + `pre_deploy_on`).
    plane.with_controller(|controller, rng| {
        controller.register_service(service.clone());
        let start = SimTime::ZERO;
        for z in 0..spec.n_gnbs {
            let cluster = controller.cluster_mut(z);
            let t = cluster.pull(service, start, rng).expect("warm: pull");
            cluster.create(service, t, rng).expect("warm: create");
        }
        for &z in &attachment {
            let cluster = controller.cluster_mut(z);
            if cluster.state(service, start) == InstanceState::Created {
                cluster
                    .scale_up(service, start, rng)
                    .expect("pre-deploy: scale-up");
            }
        }
    });

    let horizon = SimTime::ZERO + spec.horizon;
    let ping_end = SimTime::ZERO + spec.horizon.saturating_sub(Duration::from_secs(2));
    let mut steps: Vec<(SimTime, usize, Step)> = Vec::new();
    for c in 0..spec.n_clients {
        let open = SimTime::from_secs(1) + Duration::from_millis(50) * c as u64;
        steps.push((open, c, Step::Open(c)));
        let mut at = open + Duration::from_millis(10);
        while at < ping_end {
            steps.push((at, c, Step::Ping(c)));
            at += spec.ping_interval;
        }
    }
    steps.extend(
        events
            .iter()
            .filter(|e| e.at < horizon)
            .map(|e| (e.at, e.client, Step::Move(*e))),
    );
    steps.sort_by_key(|&(at, client, _)| (at, client));

    let world = World {
        server_ports: (0..spec.n_gnbs)
            .map(|g| {
                let mut ports: HashSet<u32> = net.zone_ports[g].iter().map(|p| p.0).collect();
                ports.insert(net.cloud_ports[g].0);
                ports
            })
            .collect(),
        response_bytes: service.profile.response_bytes,
    };
    let cloud_mac = net.topo.node(net.cloud).mac;
    for (now, _, step) in steps {
        plane.advance(now);
        world.answer(&mut plane, now);
        match step {
            Step::Open(c) | Step::Ping(c) => {
                let node = net.topo.node(net.clients[c]);
                let mut frame =
                    TcpFrame::syn(node.mac, cloud_mac, node.ip, 49152 + c as u16, service.addr);
                if matches!(step, Step::Ping(_)) {
                    frame.flags = TcpFlags::PSH_ACK;
                    frame.payload = vec![0x42; service.profile.request_bytes];
                }
                let g = attachment[c];
                plane.frame(now, g, net.client_ports[g][c].0, &frame.encode(), c as u32);
            }
            Step::Move(ev) => {
                let (from, to) = (attachment[ev.client], ev.to_cell % spec.n_gnbs);
                if from == to {
                    continue;
                }
                attachment[ev.client] = to;
                let node = net.topo.node(net.clients[ev.client]);
                let new_in_port = net.client_ports[to][ev.client].0;
                plane.call_times.push(now.as_nanos());
                set_request(ev.client as u32);
                let outcome = plane.with_controller(|controller, rng| {
                    span(Op::EdgectlHandover, || {
                        controller.handle_attachment_change(
                            now,
                            node.ip,
                            node.mac,
                            cloud_mac,
                            IngressId(from as u32),
                            IngressId(to as u32),
                            new_in_port,
                            HandoverPolicy::Redispatch,
                            rng,
                        )
                    })
                });
                for (ingress, m) in outcome.messages {
                    plane.enqueue(now, ingress.0 as usize, ev.client as u32, m);
                }
            }
        }
        world.answer(&mut plane, now);
    }
    plane.advance(horizon);
    plane.outbox.clear();
    plane
}

/// The servers behind the switches, reduced to "answer what arrives".
struct World {
    /// Per gNB, the ports that lead to a zone or the cloud.
    server_ports: Vec<HashSet<u32>>,
    response_bytes: usize,
}

impl World {
    /// Answers every frame the switches forwarded toward a server: SYN-ACK
    /// to a SYN, the response to a request. Frames toward clients end here.
    fn answer(&self, plane: &mut Plane, now: SimTime) {
        while let Some(fw) = plane.outbox.pop() {
            if !self.server_ports[fw.gnb].contains(&fw.port) {
                continue;
            }
            let Ok(frame) = TcpFrame::decode(&fw.data) else {
                continue;
            };
            let reply = if frame.flags.contains(TcpFlags::SYN) {
                frame.reply(TcpFlags::SYN_ACK, Vec::new())
            } else if !frame.payload.is_empty() {
                frame.reply(TcpFlags::PSH_ACK, vec![0x42; self.response_bytes])
            } else {
                continue;
            };
            // Replies retrace the port the request left through.
            plane.frame(now, fw.gnb, fw.port, &reply.encode(), fw.request);
        }
    }
}

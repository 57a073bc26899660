//! `live_fleet` — open loop over loopback UDP: the only workload that
//! crosses the kernel, `net::intake`, `net::wire` and the workers'
//! park/wake path. Detector arithmetic is a few percent of its cost
//! per heartbeat, so a detector change must not move it and an intake
//! change must. Every window runs against a fresh `FleetMonitor`, so
//! thread placement (which decides the `recvmmsg` batch fill) is drawn
//! again each time.

use super::live::{live_window, record_live, LiveShape, LiveWindow, Reader, SPEC};
use super::paced::Sink;
use super::{account, Plan};
use crate::api::{self, Fleet, LiveClock, Verdicts, WIRE};
use crate::layers;
use crate::metrics::Report;
use crate::stats::collect_windows;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

pub const STREAMS: u64 = 10_000;

/// Encodes each beat with its due stamp and sends the tick with
/// `sendmmsg` on the harness's one socket.
struct UdpSink<'a> {
    socket: &'a UdpSocket,
    frames: Vec<[u8; WIRE]>,
}

impl Sink for UdpSink<'_> {
    fn emit(&mut self, due_ns: u64, beats: &[(u64, u64)]) -> u64 {
        self.frames.resize(beats.len(), [0u8; WIRE]);
        for (frame, &(stream, seq)) in self.frames.iter_mut().zip(beats) {
            api::encode(stream, seq, due_ns, frame);
        }
        let refs: Vec<&[u8]> = self.frames.iter().map(|f| &f[..]).collect();
        let mut sent = 0;
        // A short count means the socket buffer filled; the rest is
        // tried once more, and what still does not go out is counted
        // as lost.
        while sent < refs.len() {
            match api::send_batch(self.socket, &refs[sent..]) {
                Ok(0) | Err(_) => break,
                Ok(n) => sent += n,
            }
        }
        sent as u64
    }
}

struct FleetWindow {
    live: LiveWindow,
    batch_fill: f64,
    rejected: u64,
}

pub fn run(plan: &Plan) -> Report {
    let mut report = Report::new("live_fleet", plan.seed, plan.seconds, plan.traced);
    let clock = LiveClock::new();
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind the generator socket");
    let streams = plan.streams(STREAMS);

    let windows = collect_windows(plan.windows(), plan.max_rerun(), |i| {
        let setup_started = Instant::now();
        let fleet = Fleet::spawn(&SPEC, &clock).expect("bind the fleet monitor on loopback");
        socket
            .connect(fleet.addr())
            .expect("connect the generator socket to the monitor");
        let shape = LiveShape {
            streams,
            pausable_from: 0,
            reader: Reader::Blocking,
            seed: plan.seed.wrapping_add(i as u64),
        };
        let sink = UdpSink {
            socket: &socket,
            frames: Vec::new(),
        };
        let (live, env) = live_window(plan, &shape, &clock, &fleet, setup_started, sink, |log| {
            // Everything sent must come off the socket and be applied.
            let deadline = Instant::now() + Duration::from_millis(500);
            loop {
                let (_, datagrams, _) = fleet.intake();
                let c = fleet.counts();
                let settled = datagrams >= log.sent && c.applied + c.dropped >= c.received;
                if settled || Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let (batches, datagrams, rejected) = fleet.intake();
        let window = FleetWindow {
            live,
            batch_fill: datagrams as f64 / batches.max(1) as f64,
            rejected,
        };
        (window, env)
    });
    let (lives, extras): (Vec<LiveWindow>, Vec<(f64, u64)>) = report
        .take_windows(windows)
        .into_iter()
        .map(|w| (w.live, (w.batch_fill, w.rejected)))
        .unzip();

    record_live(&mut report, &lives);
    let ingest = |w: &LiveWindow| w.cpu_ns_per_hb(|n| n.starts_with("twofd-fleet-ing"));
    report.record(
        "fleet.ingest_cpu_ns_per_hb",
        lives.iter().map(ingest).collect(),
    );
    if lives.iter().any(|w| ingest(w) == 0.0) {
        report.error("no twofd-fleet-ing* thread found to attribute CPU to".into());
    }
    report.record("intake.batch_fill", extras.iter().map(|e| e.0).collect());
    report.record_one(
        "intake.rejected",
        extras.iter().map(|e| e.1).sum::<u64>() as f64,
    );
    for w in lives {
        account(&mut report, w.expected, w.sent, w.lost, w.errors);
    }
    if plan.traced {
        // The staged pass opens the harness's one socket anew.
        drop(socket);
        layers::live_path(plan, &mut report);
    }
    super::finish(&mut report);
    report
}

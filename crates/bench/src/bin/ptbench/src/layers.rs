//! The per-layer side of the benchmark: microbenchmarks that time
//! calls into each crate's public functions, the traced pass and its
//! untraced twin, and the campaign-level measurements that need whole
//! `run*` calls. Everything here is measured from outside the engine
//! crates; nothing here feeds an end-to-end metric.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pt_anomaly::CampaignAccumulator;
use pt_campaign::CheckpointConfig;
use pt_core::{ClassicUdp, ParisUdp, ProbeSpec, ProbeStrategy};
use pt_mda::probes_to_rule_out;
use pt_netsim::{scenarios, EventWheel, SimTime, Simulator};
use pt_topogen::{generate, SyntheticInternet};
use pt_wire::ipv4::protocol;
use pt_wire::{
    Checksum, FlowPolicy, IcmpMessage, Ipv4Header, Packet, Quotation, Transport as Wire,
    UdpDatagram,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::stats::median;
use crate::trace::{
    dump, mda_loop, pair_loop, self_sum_error_max, self_times, KindSums, LoopSpec, Recorder,
    SpanKind, Totals, Untraced, TRANSPORT,
};
use crate::workloads::{nproc, seeds, Engine, Inputs, Sizes};
use crate::Until;

/// Named values, in no particular order; `report` puts them in the
/// `PER_LAYER` table's.
pub type Values = Vec<(&'static str, f64)>;

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 7);

/// Median, over `rounds` timings of `iters` calls each (after one
/// untimed round), of the nanoseconds one call takes.
fn ns_per_call(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(rounds);
    for round in 0..=rounds {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if round > 0 {
            samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    median(&samples)
}

/// Median wall time of `rounds` calls, in milliseconds.
fn ms_per_call<T>(rounds: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn a_paris_probe(rng: &mut StdRng) -> Packet {
    let mut paris = ParisUdp::new(rng.gen_range(10_000..=60_000), rng.gen_range(10_000..=60_000));
    paris.build_probe(SRC, DST, 12, 5)
}

/// Take a built UDP probe's payload buffer back, cleared, the way the
/// transport's recycling loop would.
fn reclaim(packet: Packet) -> Vec<u8> {
    match packet.transport {
        Wire::Udp(UdpDatagram { mut payload, .. }) => {
            payload.clear();
            payload
        }
        _ => Vec::new(),
    }
}

/// The microbenchmarks: one crate at a time, away from any campaign.
/// Their iteration counts are constants of the benchmark, the same on
/// every commit; only the unit tests' tiny sizes divide them.
struct Micro {
    divisor: usize,
}

impl Micro {
    fn ns_per_call(&self, rounds: usize, iters: usize, f: impl FnMut()) -> f64 {
        ns_per_call(rounds, (iters / self.divisor).max(1), f)
    }

    /// `pt-wire`: checksum folding, emit, parse, flow key.
    fn wire(&self, rng: &mut StdRng, out: &mut Values) {
        let mut mtu = [0u8; 1500];
        rng.fill_bytes(&mut mtu);
        let ns = self.ns_per_call(7, 20_000, || {
            let mut c = Checksum::new();
            c.add_bytes(black_box(&mtu));
            black_box(c.finish());
        });
        out.push(("wire.checksum.ns_per_kib", ns / (1500.0 / 1024.0)));

        let probe = a_paris_probe(rng);
        out.push((
            "wire.packet.emit_ns",
            self.ns_per_call(7, 50_000, || drop(black_box(&probe).emit())),
        ));

        // The Time Exceeded a router would send back for that probe.
        let quotation = Quotation::from_probe(probe.ip, &probe.transport_bytes());
        let reply = Packet::new(
            Ipv4Header::new(Ipv4Addr::new(10, 9, 9, 9), SRC, protocol::ICMP, 255),
            Wire::Icmp(IcmpMessage::TimeExceeded { quotation }),
        );
        let bytes = reply.emit();
        out.push((
            "wire.packet.parse_ns",
            self.ns_per_call(7, 50_000, || drop(black_box(Packet::parse(black_box(&bytes))))),
        ));
        out.push((
            "wire.flow_key.ns",
            self.ns_per_call(7, 200_000, || {
                black_box(FlowPolicy::FiveTuple.flow_key(black_box(&probe)));
            }),
        ));
    }

    /// `pt-core`: probe construction, per probe and per window.
    fn core(&self, rng: &mut StdRng, out: &mut Values) {
        let mut paris =
            ParisUdp::new(rng.gen_range(10_000..=60_000), rng.gen_range(10_000..=60_000));
        let mut classic = ClassicUdp::new(rng.gen::<u16>() & 0x7fff);
        let build = |strategy: &mut dyn ProbeStrategy| {
            let mut payload = Vec::new();
            let mut idx = 0u64;
            self.ns_per_call(7, 100_000, || {
                idx = (idx + 1) % 39;
                let buf = std::mem::take(&mut payload);
                let probe = strategy.build_probe_with(SRC, DST, 1 + idx as u8, idx, buf);
                payload = reclaim(black_box(probe));
            })
        };
        out.push(("core.build_probe.paris_ns", build(&mut paris)));
        out.push(("core.build_probe.classic_ns", build(&mut classic)));

        // One window top-up of the default tracer: three consecutive TTLs.
        let specs: Vec<ProbeSpec> =
            (0..3).map(|i| ProbeSpec { ttl: 4 + i, probe_idx: 3 + u64::from(i) }).collect();
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        let mut built = Vec::with_capacity(specs.len());
        let ns = self.ns_per_call(7, 50_000, || {
            paris.build_probe_batch(
                SRC,
                DST,
                black_box(&specs),
                &mut || payloads.pop().unwrap_or_default(),
                &mut built,
            );
            payloads.extend(built.drain(..).map(|p| reclaim(black_box(p))));
        });
        out.push(("core.build_batch.ns_per_probe", ns / specs.len() as f64));
    }

    /// `pt-mda`: the exact stopping rule, computed cold for k = 1..=16 at
    /// the campaign's alpha.
    fn mda_rule(&self, out: &mut Values) {
        let ns = self.ns_per_call(7, 200, || {
            for k in 1..=16 {
                black_box(probes_to_rule_out(black_box(k), black_box(0.01)));
            }
        });
        out.push(("mda.rule.table_ns", ns));
    }

    /// Hold-`occupancy` model of the event wheel: pop the earliest event,
    /// schedule its successor `spacing_ns` (give or take half) later.
    fn wheel_ns_per_event(&self, rng: &mut StdRng, occupancy: usize, spacing_ns: u64) -> f64 {
        const STEPS: usize = 100_000;
        let jitter: Vec<u64> = (0..1024).map(|_| rng.gen_range(0..spacing_ns)).collect();
        let delay = |seq: u64| spacing_ns / 2 + jitter[seq as usize % jitter.len()];
        let mut wheel = EventWheel::new();
        let mut seq = 0u64;
        for _ in 0..occupancy {
            wheel.schedule(SimTime(delay(seq)), seq, seq);
            seq += 1;
        }
        self.ns_per_call(5, STEPS, || {
            let (time, _, payload) = wheel.pop().expect("the wheel holds its occupancy");
            black_box(payload);
            wheel.schedule(SimTime(time.nanos() + delay(seq)), seq, seq);
            seq += 1;
        })
    }

    /// `pt-netsim` away from any tracer: the event wheel dense and sparse
    /// in time, bare forwarding of a minimum-size packet, construction.
    fn netsim(&self, rng: &mut StdRng, net: &SyntheticInternet, out: &mut Values) {
        let mut wheel = |spacing_ns| {
            (self.wheel_ns_per_event(rng, 8, spacing_ns)
                + self.wheel_ns_per_event(rng, 1024, spacing_ns))
                / 2.0
        };
        out.push(("netsim.wheel.dense_ns_per_event", wheel(1_000_000)));
        out.push(("netsim.wheel.sparse_ns_per_event", wheel(2_000_000_000)));

        // An empty UDP datagram down a 32-router chain and the Port
        // Unreachable back up it: nothing but forwarding.
        let chain = scenarios::linear(32);
        let mut sim = Simulator::new(chain.topology.clone(), rng.gen());
        let src = chain.topology.node(chain.source).primary_addr();
        let packet = Packet::new(
            Ipv4Header::new(src, chain.destination, protocol::UDP, 64),
            Wire::Udp(UdpDatagram::new(40_000, 33_435, Vec::new())),
        );
        let trip = |sim: &mut Simulator| {
            sim.inject(chain.source, packet.clone());
            sim.run_to_quiescence();
            while let Some((_, reply)) = sim.pop_delivery(chain.source) {
                sim.recycle(reply);
            }
        };
        trip(&mut sim);
        let hops_per_trip = sim.stats().forwarded as f64;
        let ns_per_trip = self.ns_per_call(5, 2_000, || trip(&mut sim));
        out.push(("netsim.bare_forward.ns_per_hop", ns_per_trip / hops_per_trip));

        // Construction only: the simulators are dropped after the clock stops.
        let mut built = Vec::with_capacity(18);
        let ns =
            self.ns_per_call(5, 3, || built.push(Simulator::new(Arc::clone(&net.topology), 1)));
        out.push(("netsim.sim_new.us", ns / 1e3));
    }
}

/// `pt-anomaly`'s snapshot codec over a campaign-sized accumulator.
fn anomaly_codec(acc: &CampaignAccumulator, out: &mut Values) {
    let mut text = String::new();
    let write_ns = ns_per_call(3, 1, || {
        text.clear();
        acc.snapshot_write(&mut text);
    });
    let kib = text.len() as f64 / 1024.0;
    let read_ns = ns_per_call(3, 1, || {
        let parsed = CampaignAccumulator::snapshot_read(&mut text.lines());
        assert!(black_box(parsed).is_ok(), "an accumulator snapshot must parse back");
    });
    out.push(("anomaly.snapshot_write.ns_per_kib", write_ns / kib));
    out.push(("anomaly.snapshot_read.ns_per_kib", read_ns / kib));
}

/// One traced pass and what it yields.
struct Pass {
    wall_s: f64,
    totals: Totals,
    sums: KindSums,
    self_sum_error: f64,
    recorder: Recorder,
    /// Pair engine only: the merged classic accumulator.
    classic: Option<CampaignAccumulator>,
}

/// Run the engine's unit loop once, traced or not.
fn run_loop<M: crate::trace::Tracing>(
    net: &SyntheticInternet,
    engine: &Engine,
    spec: LoopSpec,
    m: &mut M,
) -> (f64, Totals, Option<CampaignAccumulator>) {
    let start = Instant::now();
    let (totals, classic) = match engine {
        Engine::Pair(c) => {
            let done = pair_loop(net, spec, c.trace, m);
            black_box(&done.paris);
            (done.totals, Some(done.classic))
        }
        Engine::Mda(c) => (mda_loop(net, spec, c, m), None),
    };
    (start.elapsed().as_secs_f64(), totals, classic)
}

fn traced_pass(net: &SyntheticInternet, engine: &Engine, spec: LoopSpec) -> Pass {
    let mut recorder = Recorder::with_capacity(spec.units() * 14 + 4);
    let (wall_s, totals, classic) = run_loop(net, engine, spec, &mut recorder);
    let own = self_times(&recorder.spans);
    Pass {
        wall_s,
        totals,
        sums: KindSums::of(&recorder.spans, &own),
        self_sum_error: self_sum_error_max(&recorder.spans, &own),
        recorder,
        classic,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The metrics every traced pass yields, whichever engine ran:
/// `pt-netsim` behind the transport, the pool, and the accounting of
/// the loop's wall time.
fn shared_metrics(p: &Pass, engine_own: f64, out: &mut Values) {
    use SpanKind::*;
    let (s, t) = (&p.sums, &p.totals);
    let wall = s.dur_of(&[Loop]);
    let probes = t.probes as f64;
    let transport = s.dur_of(&TRANSPORT);
    let pool = s.dur_of(&[PoolAcquire, PoolRelease]);
    let ingest = s.dur_of(&[Ingest]);
    out.push(("netsim.transport.ns_per_probe", ratio(transport, probes)));
    out.push(("netsim.transport.share", ratio(transport, wall)));
    for (name, kind) in [
        ("netsim.send.ns_per_call", Send),
        ("netsim.recv_until.ns_per_call", RecvUntil),
        ("netsim.try_recv.ns_per_call", TryRecv),
    ] {
        out.push((name, ratio(s.dur_of(&[kind]), s.count_of(&[kind]))));
    }
    out.push(("netsim.forwarded_per_probe", ratio(t.forwarded as f64, probes)));
    out.push(("netsim.responses_per_probe", ratio(t.responses as f64, probes)));
    out.push(("netsim.dropped_share", ratio(t.dropped as f64, probes)));
    out.push(("netsim.ns_per_forward", ratio(transport, t.forwarded as f64)));
    out.push(("netsim.pool.ns_per_unit", ratio(pool, t.units as f64)));
    out.push(("netsim.pool.share", ratio(pool, wall)));
    out.push(("netsim.arena_slots_high_water", t.arena_slots_high_water as f64));
    // What is left once the four named buckets are taken out: unit
    // glue (seed derivation, strategy construction, totals), recycling,
    // merge and reports, and the recorder's own pushes.
    out.push(("trace.residual_share", ratio(wall - engine_own - transport - pool - ingest, wall)));
    out.push(("trace.self_sum_error_max", p.self_sum_error));
}

/// `pt-core`'s window loop and `pt-anomaly`'s ingest, from a pair pass.
fn pair_metrics(p: &Pass, out: &mut Values) -> f64 {
    use SpanKind::*;
    let (s, t) = (&p.sums, &p.totals);
    let wall = s.dur_of(&[Loop]);
    let own = s.own_of(&[TraceParis, TraceClassic]);
    out.push(("core.trace.self_ns_per_probe", ratio(own, t.probes as f64)));
    out.push(("core.trace.self_share", ratio(own, wall)));
    out.push(("core.trace.probes_per_trace", ratio(t.probes as f64, t.traces as f64)));
    out.push((
        "core.trace.transport_calls_per_probe",
        ratio(s.count_of(&TRANSPORT), t.probes as f64),
    ));
    out.push(("core.trace.stars_share", ratio(t.stars as f64, t.probes as f64)));
    out.push(("anomaly.ingest.ns_per_route", ratio(s.dur_of(&[Ingest]), t.traces as f64)));
    out.push(("anomaly.ingest.share", ratio(s.dur_of(&[Ingest]), wall)));
    out.push(("anomaly.merge.ms", s.dur_of(&[Merge]) / 1e6));
    out.push(("anomaly.report.ms", s.dur_of(&[Report]) / 1e6));
    own
}

/// `pt-mda`'s walk, from an MDA pass.
fn mda_metrics(p: &Pass, out: &mut Values) -> f64 {
    let (s, t) = (&p.sums, &p.totals);
    let own = s.own_of(&[SpanKind::Discover]);
    out.push(("mda.discover.self_ns_per_probe", ratio(own, t.probes as f64)));
    out.push(("mda.discover.self_share", ratio(own, s.dur_of(&[SpanKind::Loop]))));
    out.push(("mda.probes_per_unit", ratio(t.probes as f64, t.units as f64)));
    out.push(("mda.probes_per_hop", ratio(t.probes as f64, t.hops as f64)));
    out.push(("mda.stars_share", ratio(t.stars as f64, t.probes as f64)));
    out.push(("mda.unconverged_hop_share", ratio(t.unconverged_hops as f64, t.hops as f64)));
    own
}

/// Element-wise median of several passes' values (same names, same
/// order in each).
fn median_of_passes(passes: &[Values]) -> Values {
    (0..passes[0].len())
        .map(|i| {
            let column: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
            (passes[0][i].0, median(&column))
        })
        .collect()
}

/// What the traced pass reports besides metric values.
pub struct TracedOutcome {
    pub values: Values,
    /// Units the traced loops walked, over all passes.
    pub units_traced: u64,
    /// The traced loop's totals equalled the untraced twin's.
    pub twin_equal: bool,
    /// Every unit's self times summed to its span within 1%.
    pub self_sum_ok: bool,
}

/// Wall time of one call, in milliseconds, and what it returned.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64() * 1e3, value)
}

/// The whole per-layer pass for one workload.
///
/// The box's speed drifts by tens of percent over minutes, so every
/// figure that is a difference or a ratio of two wall times takes both
/// from the same moment: the two sides run back to back, the figure is
/// computed per round, and the rounds' median is reported.
pub fn measure(
    inputs: &Inputs,
    seed: u64,
    sizes: Sizes,
    passes: Until,
    scratch_dir: &Path,
) -> TracedOutcome {
    let s = seeds(seed, inputs.workload);
    let mut rng = StdRng::seed_from_u64(s.trace);
    let net = &inputs.net;
    let mut values = Values::new();

    let generate_ms = ms_per_call(5, || generate(&net.config));
    values.push(("topogen.generate.ms", generate_ms));
    values.push(("topogen.nodes", net.topology.len() as f64));
    let micro = Micro { divisor: sizes.micro_divisor };
    micro.wire(&mut rng, &mut values);
    micro.core(&mut rng, &mut values);
    micro.mda_rule(&mut values);
    micro.netsim(&mut rng, net, &mut values);

    // The workload's own engine by turns: the traced loop, its untraced
    // twin, and `pt-campaign`'s own `run` of the same units.
    let engine = inputs.engine.with_workers(1).without_dynamics();
    let spec = LoopSpec { dests: net.dests.len(), rounds: engine.rounds(), seed: rng.gen() };
    let mut rounds = Vec::new();
    let mut twin_equal = true;
    let mut self_sum_ok = true;
    let mut units_traced = 0;
    let mut last = None;
    let started = Instant::now();
    while !passes.done(rounds.len(), started) {
        let pass = traced_pass(net, &engine, spec);
        let (twin_wall_s, twin_totals, _) = run_loop(net, &engine, spec, &mut Untraced);
        let (run_ms, _) = timed_ms(|| engine.run(net));
        twin_equal &= pass.totals == twin_totals;
        self_sum_ok &= pass.self_sum_error <= 0.01;
        units_traced += pass.totals.units;
        let mut v = Values::new();
        let engine_own = match engine {
            Engine::Pair(_) => pair_metrics(&pass, &mut v),
            Engine::Mda(_) => mda_metrics(&pass, &mut v),
        };
        shared_metrics(&pass, engine_own, &mut v);
        v.push(("trace.overhead_share", (pass.wall_s - twin_wall_s) / twin_wall_s));
        v.push(("campaign.run.ns_per_unit", run_ms * 1e6 / inputs.units as f64));
        v.push(("campaign.overhead_share", 1.0 - twin_wall_s * 1e3 / run_ms));
        rounds.push(v);
        last = Some(pass);
    }
    let last = last.expect("at least one traced pass");
    values.extend(median_of_passes(&rounds));
    let name = crate::metrics::WORKLOADS[inputs.workload].name;
    if let Err(e) = dump(&last.recorder.spans, &scratch_dir.join(format!("spans-{name}.tsv"))) {
        eprintln!("ptbench: span dump not written: {e}");
    }

    // The engine this workload does not use, on a fifth of its net: the
    // driver contract wants every per-layer metric from every traced
    // run, so that engine's layer is measured on this topology too.
    let other = match &engine {
        Engine::Pair(c) => Engine::Mda(pt_campaign::MultipathConfig {
            workers: 1,
            seed: c.seed,
            ..Default::default()
        }),
        Engine::Mda(c) => Engine::Pair(pt_campaign::CampaignConfig {
            rounds: 1,
            workers: 1,
            seed: c.seed,
            ..Default::default()
        }),
    };
    let slice = LoopSpec { dests: net.dests.len().div_ceil(5), rounds: 1, seed: rng.gen() };
    let mut secondary = Vec::new();
    let mut other_last = None;
    for _ in 0..3 {
        let pass = traced_pass(net, &other, slice);
        units_traced += pass.totals.units;
        self_sum_ok &= pass.self_sum_error <= 0.01;
        let mut v = Values::new();
        match other {
            Engine::Pair(_) => pair_metrics(&pass, &mut v),
            Engine::Mda(_) => mda_metrics(&pass, &mut v),
        };
        secondary.push(v);
        other_last = Some(pass);
    }
    values.extend(median_of_passes(&secondary));
    // Whichever pass ran the pair engine holds a campaign accumulator.
    let classic = last.classic.as_ref().or(other_last.as_ref().and_then(|p| p.classic.as_ref()));
    anomaly_codec(classic.expect("one of the two engines is the pair engine"), &mut values);

    campaign(inputs, &engine, sizes, scratch_dir, &mut values);
    TracedOutcome { values, units_traced, twin_equal, self_sum_ok }
}

/// `pt-campaign` as a whole: checkpointing against `run`, two workers
/// against one, reload, digest, and stepwise resume.
fn campaign(inputs: &Inputs, engine: &Engine, sizes: Sizes, scratch_dir: &Path, out: &mut Values) {
    let net = &inputs.net;
    let path = scratch_dir.join(format!("layers-{}.ptsnap", std::process::id()));
    let mut ckpt = CheckpointConfig {
        path: path.clone(),
        every_units: sizes.every_units,
        stop_after_checkpoints: None,
    };
    let size = || std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    let checkpoints = (inputs.units as f64 / f64::from(sizes.every_units)).ceil();
    let two_workers = (nproc() >= 2).then(|| engine.with_workers(2));

    let mut rounds = Vec::new();
    let mut outcome = None;
    for _ in 0..3 {
        let (run_ms, plain) = timed_ms(|| engine.run(net));
        let (checkpointed_ms, _) =
            timed_ms(|| engine.run_checkpointed(net, &ckpt).expect("snapshot write failed"));
        // 0 = unmeasured: one hardware thread cannot show a parallel win.
        let w2_over_w1 =
            two_workers.as_ref().map_or(0.0, |two| run_ms / timed_ms(|| two.run(net)).0);
        rounds.push(vec![
            ("campaign.checkpoint.ms_per_checkpoint", (checkpointed_ms - run_ms) / checkpoints),
            ("campaign.pool.w2_over_w1", w2_over_w1),
        ]);
        outcome = Some(plain);
    }
    out.extend(median_of_passes(&rounds));
    let outcome = outcome.expect("three rounds ran");
    out.push(("campaign.digest.ms", ms_per_call(3, || outcome.digest())));
    out.push(("campaign.snapshot.bytes_final", size()));
    // The snapshot on disk is complete: resuming it loads, checks the
    // fingerprint and finalizes without running a unit.
    out.push((
        "campaign.snapshot.load_ms",
        ms_per_call(3, || engine.run_resumed(net, &ckpt).expect("snapshot reload failed")),
    ));

    // One block per call, as a supervisor restarting a dying campaign
    // would: every step reloads the whole, growing snapshot.
    ckpt.stop_after_checkpoints = Some(1);
    let mut step_ms = Vec::new();
    let mut written = 0.0;
    let mut first = true;
    loop {
        let (ms, finished) = timed_ms(|| {
            if first { engine.run_checkpointed(net, &ckpt) } else { engine.run_resumed(net, &ckpt) }
                .expect("snapshot step failed")
        });
        first = false;
        step_ms.push(ms);
        written += size();
        if finished.is_some() {
            break;
        }
    }
    out.push(("campaign.snapshot.bytes_written_total", written));
    out.push(("campaign.resume.step_ms_p50", median(&step_ms)));
    let _ = std::fs::remove_file(&path);
}

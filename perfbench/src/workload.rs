//! The benchmark's workloads and the operations they run.
//!
//! Everything is driven through the simulator crates' public APIs with
//! the seeding of `ofar_core::run`: the policy gets the workload seed,
//! the destination generator seed + 1 and the Bernoulli injector
//! seed + 2. One operation is one fixed-length simulation, so its end
//! state is a deterministic function of the seed and can be pinned.

use crate::trace::{Tapped, Trace};
use ofar_engine::{Network, SimConfig, Stats, StatsWindow};
use ofar_routing::{DependencyDecl, Mechanism, MechanismKind};
use ofar_topology::NodeId;
use ofar_traffic::{Bernoulli, TrafficGen, TrafficSpec};
use ofar_verify::RankingKind;
use std::time::Instant;

/// Seed the pinned digests were recorded at (the figure runners' seed).
pub const DEFAULT_SEED: u64 = 2012;

/// Every workload runs the paper's mechanism.
const KIND: MechanismKind = MechanismKind::Ofar;

/// Cycles without a single crossbar grant after which a drain counts
/// as stalled.
const STALL_CYCLES: u64 = 20_000;

/// Cycles per timed segment of a steady workload's measured window.
const SEGMENT: u64 = 50;

/// Destination pattern.
#[derive(Clone, Copy, Debug)]
pub enum Pattern {
    /// ADV+offset.
    Adversarial(usize),
    /// The paper's MIX2 (60% UN, 20% ADV+1, 20% ADV+h).
    Mix2,
}

/// How a workload loads the network.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Bernoulli open loop at `load` phits/(node·cycle): `warmup`
    /// cycles, `measure` timed cycles, then injection stops and the
    /// network drains. Accepted load must be at least `min_accept` ×
    /// `load`.
    Steady {
        load: f64,
        warmup: u64,
        measure: u64,
        min_accept: f64,
    },
    /// Every node enqueues `packets_per_node` packets before cycle 0 and
    /// the network drains; checkpointed operations save a snapshot every
    /// `ckpt_every` cycles, restore it into a fresh network and go on
    /// with the restored copy.
    Burst {
        packets_per_node: usize,
        ckpt_every: u64,
    },
}

/// The simulated outcome of one operation: the cycle at which the
/// network was empty again, delivered packets and an FNV-1a hash of
/// `Stats::counters()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub cycle: u64,
    pub delivered: u64,
    pub counters: u64,
}

impl Digest {
    fn of(stats: &Stats, cycle: u64) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in stats.counters().iter().flat_map(|c| c.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Self {
            cycle,
            delivered: stats.delivered_packets,
            counters: hash,
        }
    }
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Dragonfly size parameter of `SimConfig::paper(h)`.
    pub h: usize,
    pub pattern: Pattern,
    pub shape: Shape,
    /// Whether set-up runs the routing-conformance explorer after the
    /// CDG certificate, as `OFAR_CONFORMANCE=1` does.
    pub conformance: bool,
    /// Digest of every operation at [`DEFAULT_SEED`].
    pub pinned: Digest,
}

/// The workloads, by name.
pub fn all() -> [Workload; 2] {
    [
        // Fig. 5's worst case, between the 1/h = 0.25 wall and OFAR's
        // saturation near 0.40: nearly every router routes a head packet
        // every cycle, so routing dominates the step; set-up runs the
        // h=4 conformance explorer.
        Workload {
            name: "advh_h4_steady",
            h: 4,
            pattern: Pattern::Adversarial(4),
            shape: Shape::Steady {
                load: 0.30,
                warmup: 1_000,
                measure: 3_000,
                min_accept: 0.95,
            },
            conformance: true,
            pinned: Digest {
                cycle: 4_454,
                delivered: 158_134,
                counters: 13_408_563_312_632_735_847,
            },
        },
        // Fig. 7's mixed burst at its h=4 size (50 packets per node),
        // drained to empty with a save→restore every 100 cycles (the
        // nightly race epoch): snapshot codec and CRC, and the engine's
        // transient inject-then-drain regime.
        Workload {
            name: "burst_ckpt_h4",
            h: 4,
            pattern: Pattern::Mix2,
            shape: Shape::Burst {
                packets_per_node: 50,
                ckpt_every: 100,
            },
            conformance: false,
            pinned: Digest {
                cycle: 1_235,
                delivered: 52_800,
                counters: 16_372_271_799_627_613_773,
            },
        },
    ]
}

impl Workload {
    /// The adapted configuration the network runs.
    pub fn cfg(&self) -> SimConfig {
        KIND.adapt_config(SimConfig::paper(self.h))
    }

    fn spec(&self) -> TrafficSpec {
        match self.pattern {
            Pattern::Adversarial(offset) => TrafficSpec::adversarial(offset),
            Pattern::Mix2 => TrafficSpec::mix2(self.h),
        }
    }

    /// Check one operation's outcome: the invariants that hold at any
    /// seed, equality with `reference` (the run's first operation; for
    /// the burst, its uncheckpointed drain) and, at [`DEFAULT_SEED`],
    /// equality with the pinned digest.
    pub fn check(
        &self,
        seed: u64,
        op: &OpResult,
        reference: Option<&Digest>,
    ) -> Result<(), String> {
        if op.generated != op.digest.delivered {
            return Err(format!(
                "{} packets generated but {} delivered",
                op.generated, op.digest.delivered
            ));
        }
        if let Shape::Steady {
            load, min_accept, ..
        } = self.shape
        {
            let accepted = op.window.throughput();
            let ratio = accepted / load;
            if ratio < min_accept {
                return Err(format!(
                    "accepted {accepted:.4} is {ratio:.3}× the offered {load}, below {min_accept}"
                ));
            }
        }
        if let Some(reference) = reference {
            if op.digest != *reference {
                return Err(format!(
                    "digest {:?} differs from this run's reference {reference:?}",
                    op.digest
                ));
            }
        }
        if seed == DEFAULT_SEED && op.digest != self.pinned {
            return Err(format!(
                "digest {:?} differs from the pinned {:?}",
                op.digest, self.pinned
            ));
        }
        Ok(())
    }
}

/// A network ready to run, with its traffic sources.
pub struct Sim<P: Tapped> {
    pub net: Network<P>,
    gen: TrafficGen,
    bern: Option<Bernoulli>,
}

/// What set-up's conformance explorer covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct Conformance {
    pub states: usize,
    pub decisions: usize,
}

/// Build a network for `w` at `seed`, from configuration to the first
/// simulated cycle: certify the configuration (and, if `explore`, run
/// the conformance explorer when the workload asks for it), build the
/// network and its traffic sources.
pub fn setup<P: Tapped>(
    w: &Workload,
    seed: u64,
    explore: bool,
    wrap: &impl Fn(Mechanism) -> P,
    tr: &mut Trace,
) -> Result<(Sim<P>, Option<Conformance>), String> {
    let parent = tr.open("setup", 0, None);
    let cfg = w.cfg();
    let mut conformance = None;
    let span = tr.open("verify.certify", 0, parent);
    ofar_verify::certify(&cfg, KIND).map_err(|e| format!("certify: {e}"))?;
    tr.close(span);
    if w.conformance && explore {
        // `ofar_verify::conformance` minus its leading certify call,
        // which was just timed on its own.
        let span = tr.open("verify.conformance", 0, parent);
        let report = ofar_verify::conformance_with(
            &cfg,
            KIND.build(&cfg, 0),
            KIND.dependency_decl(&cfg),
            RankingKind::for_mechanism(KIND),
        )
        .map_err(|e| format!("conformance: {e}"))?;
        tr.close(span);
        conformance = Some(Conformance {
            states: report.states,
            decisions: report.decisions,
        });
    }
    let span = tr.open("engine.build", 0, parent);
    let mut net = Network::new(cfg, wrap(KIND.build(&cfg, seed)));
    tr.close(span);
    let span = tr.open("traffic.setup", 0, parent);
    let topo = *net.fabric().topo();
    let mut gen = TrafficGen::new(&topo, w.spec(), seed.wrapping_add(1));
    let bern = match w.shape {
        Shape::Steady { load, .. } => {
            Some(Bernoulli::new(load, cfg.packet_size, seed.wrapping_add(2)))
        }
        Shape::Burst {
            packets_per_node, ..
        } => {
            for _ in 0..packets_per_node {
                for n in 0..net.num_nodes() {
                    let src = NodeId::from(n);
                    let dst = gen.destination(src);
                    net.generate(src, dst);
                }
            }
            None
        }
    };
    tr.close(span);
    tr.close(parent);
    Ok((Sim { net, gen, bern }, conformance))
}

/// The outcome of one operation.
#[derive(Clone, Debug)]
pub struct OpResult {
    pub digest: Digest,
    pub generated: u64,
    /// Counter deltas over the timed phase: the measured window, or the
    /// burst's whole drain.
    pub window: StatsWindow,
    /// Checkpoints attempted and failed.
    pub ckpts: (u64, u64),
    /// Host time of the timed phase, one `(cycles, seconds)` entry per
    /// segment: [`SEGMENT`] cycles of the measured window, or on a
    /// checkpointed burst the cycles up to and including each
    /// checkpoint. Operations of one run simulate the same cycles, so
    /// their segments line up. Empty for an uncheckpointed burst.
    pub segments: Vec<(u64, f64)>,
}

/// Simulate one cycle: the injector's draws, then `Network::step`.
fn cycle<P: Tapped>(sim: &mut Sim<P>, tr: &mut Trace) {
    let now = sim.net.now();
    if let Some(bern) = &mut sim.bern {
        let span = tr.open_cycle("traffic.gen", now);
        let (net, gen) = (&mut sim.net, &mut sim.gen);
        bern.cycle(net.num_nodes(), |src| {
            let dst = gen.destination(src);
            net.generate(src, dst);
        });
        tr.close(span);
    }
    let span = tr.open_cycle("engine.step", now);
    sim.net.step();
    tr.close_step(span, sim.net.policy().taps());
}

fn stalled<P: Tapped>(net: &Network<P>) -> Result<(), String> {
    if net.now() - net.stats().last_grant > STALL_CYCLES {
        return Err(format!(
            "stalled at cycle {} with {} packets in flight",
            net.now(),
            net.in_flight()
        ));
    }
    Ok(())
}

/// Run one operation on `sim`, timing its segments (see
/// [`OpResult::segments`]). `wrap` builds the policy of the fresh
/// network each checkpoint restores into.
pub fn run_op<P: Tapped>(
    w: &Workload,
    seed: u64,
    mut sim: Sim<P>,
    checkpoint: bool,
    wrap: &impl Fn(Mechanism) -> P,
    tr: &mut Trace,
) -> Result<OpResult, String> {
    let nodes = sim.net.num_nodes();
    match w.shape {
        Shape::Steady {
            warmup, measure, ..
        } => {
            for _ in 0..warmup {
                cycle(&mut sim, tr);
            }
            let start = sim.net.stats().clone();
            let mut segments = Vec::new();
            tr.per_cycle = true;
            let mut last = Instant::now();
            for i in 1..=measure {
                cycle(&mut sim, tr);
                if i % SEGMENT == 0 || i == measure {
                    let now = Instant::now();
                    let cycles = (i - 1) % SEGMENT + 1;
                    segments.push((cycles, (now - last).as_secs_f64()));
                    last = now;
                }
            }
            tr.per_cycle = false;
            let window = StatsWindow::between(&start, sim.net.stats(), measure, nodes);
            sim.bern = None;
            while !sim.net.drained() {
                cycle(&mut sim, tr);
                stalled(&sim.net)?;
            }
            Ok(OpResult {
                digest: Digest::of(sim.net.stats(), sim.net.now()),
                generated: sim.net.stats().generated_packets,
                window,
                ckpts: (0, 0),
                segments,
            })
        }
        Shape::Burst { ckpt_every, .. } => {
            let start = sim.net.stats().clone();
            let mut ckpts = (0, 0);
            let mut segments = Vec::new();
            tr.per_cycle = true;
            let (mut last, mut last_cycle) = (Instant::now(), 0);
            while !sim.net.drained() {
                cycle(&mut sim, tr);
                stalled(&sim.net)?;
                let now = sim.net.now();
                if checkpoint && now.is_multiple_of(ckpt_every) && !sim.net.drained() {
                    ckpts.0 += 1;
                    if let Err(e) = save_restore(w, seed, &mut sim.net, wrap, tr) {
                        eprintln!("checkpoint at cycle {now} failed: {e}");
                        ckpts.1 += 1;
                    }
                }
                if checkpoint && (now.is_multiple_of(ckpt_every) || sim.net.drained()) {
                    let at = Instant::now();
                    segments.push((now - last_cycle, (at - last).as_secs_f64()));
                    (last, last_cycle) = (at, now);
                }
            }
            tr.per_cycle = false;
            let cycles = sim.net.now();
            let window = StatsWindow::between(&start, sim.net.stats(), cycles, nodes);
            Ok(OpResult {
                digest: Digest::of(sim.net.stats(), cycles),
                generated: sim.net.stats().generated_packets,
                window,
                ckpts,
                segments,
            })
        }
    }
}

/// Save a snapshot of `net`, restore it into a freshly built network
/// and swap that in. On a restore error `net` is left as it was.
fn save_restore<P: Tapped>(
    w: &Workload,
    seed: u64,
    net: &mut Network<P>,
    wrap: &impl Fn(Mechanism) -> P,
    tr: &mut Trace,
) -> Result<(), String> {
    let cycle = net.now();
    let parent = tr.open("snapshot.checkpoint", cycle, None);
    let span = tr.open("snapshot.save", cycle, parent);
    let bytes = net.save_snapshot();
    let len = bytes.len() as u64;
    tr.close_bytes(span, len);
    if tr.enabled() {
        // The CRC alone, over the bytes just saved; traced runs only.
        let span = tr.open("snapshot.crc32", cycle, parent);
        std::hint::black_box(ofar_engine::crc32(std::hint::black_box(&bytes)));
        tr.close_bytes(span, len);
    }
    let cfg = w.cfg();
    let span = tr.open("engine.build", cycle, parent);
    let mut fresh = Network::new(cfg, wrap(KIND.build(&cfg, seed)));
    tr.close(span);
    let span = tr.open("snapshot.restore", cycle, parent);
    let restored = fresh.restore_snapshot(&bytes);
    tr.close_bytes(span, len);
    tr.close(parent);
    restored.map_err(|e| e.to_string())?;
    *net = fresh;
    Ok(())
}

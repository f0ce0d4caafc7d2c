//! Span tracing for the traced run, recorded around the calls the
//! benchmark makes into each layer of the simulator.
//!
//! Spans of one simulated cycle carry that cycle's number. Routing is
//! timed by [`Timed`], a [`Policy`] wrapper around the mechanism: its
//! calls are folded into one child span per policy method per cycle
//! (with a call count), so memory grows with cycles, not with calls.
//! Spans stay in memory and are written out as JSON lines at the end.

use ofar_engine::{InputCtx, NetSnapshot, Packet, Policy, Request, RouterView};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. A span with `calls > 1` stands for that many
/// disjoint calls inside `[start_ns, end_ns]`, and `busy_ns` is their
/// summed duration; for a single call `busy_ns == end_ns - start_ns`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer and call, such as `engine.step` or `routing.route`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// Simulated cycle the span belongs to (0 during set-up).
    pub cycle: u64,
    /// Start, in ns since the trace's origin.
    pub start_ns: u64,
    /// End, in ns since the trace's origin.
    pub end_ns: u64,
    /// Time spent inside the call(s).
    pub busy_ns: u64,
    /// Number of calls the span covers.
    pub calls: u64,
    /// Bytes the call processed (snapshot spans; 0 elsewhere).
    pub bytes: u64,
}

/// The span recorder. A disabled trace records nothing and costs one
/// branch per call site.
pub struct Trace {
    origin: Instant,
    enabled: bool,
    /// Whether per-cycle spans (`engine.step`, `traffic.gen` and the
    /// routing children) are recorded; set around the timed phase only.
    pub per_cycle: bool,
    /// Every recorded span, parents before their children.
    pub spans: Vec<Span>,
    /// Distinct routers with at least one `route` call, one entry per
    /// recorded `engine.step` span.
    pub active_routers: Vec<u32>,
}

impl Trace {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            per_cycle: false,
            spans: Vec::new(),
            active_routers: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The clock origin span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        ns_since(self.origin)
    }

    /// Open a span under `parent`; `None` when not recording.
    pub fn open(&mut self, name: &'static str, cycle: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            cycle,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
            bytes: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a per-cycle root span.
    pub fn open_cycle(&mut self, name: &'static str, cycle: u64) -> Option<usize> {
        if self.per_cycle {
            self.open(name, cycle, None)
        } else {
            None
        }
    }

    /// Close a span opened by [`Self::open`] or [`Self::open_cycle`].
    pub fn close(&mut self, span: Option<usize>) -> Option<&mut Span> {
        let i = span?;
        let now = self.now_ns();
        let s = &mut self.spans[i];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        Some(s)
    }

    /// Close a span and record the bytes its call processed.
    pub fn close_bytes(&mut self, span: Option<usize>, bytes: u64) {
        if let Some(s) = self.close(span) {
            s.bytes = bytes;
        }
    }

    /// Close an `engine.step` span and attach the routing calls the
    /// policy wrapper tallied during that cycle as its children.
    pub fn close_step(&mut self, step: Option<usize>, taps: Option<&Taps>) {
        let Some(cycle) = self.close(step).map(|s| s.cycle) else {
            return;
        };
        let Some(taps) = taps else {
            self.active_routers.push(0);
            return;
        };
        for (name, tally) in [
            ("routing.on_inject", &taps.inject),
            ("routing.route", &taps.route),
        ] {
            if let Some(t) = tally.at(cycle) {
                self.spans.push(Span {
                    name,
                    parent: step,
                    cycle,
                    start_ns: t.first_ns,
                    end_ns: t.last_ns,
                    busy_ns: t.busy_ns,
                    calls: t.calls,
                    bytes: 0,
                });
            }
        }
        self.active_routers.push(taps.active_at(cycle));
    }

    /// Spans named `name` whose parent is named `parent` (`None`: roots).
    pub fn named<'a>(
        &'a self,
        name: &'a str,
        parent: Option<&'a str>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.parent.map(|p| self.spans[p].name) == parent)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"cycle\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"bytes\":{}}}",
                s.name, s.cycle, s.start_ns, s.end_ns, s.busy_ns, s.calls, s.bytes
            )?;
        }
        out.flush()
    }
}

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its busy time minus the part its children
/// cover. Children of one span are disjoint calls inside it, so the
/// covered part is the sum of their busy times. A negative entry means
/// a child was timed outside its parent.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.busy_ns as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.busy_ns as i64;
        }
    }
    out
}

/// Calls of one policy method in the cycle being simulated.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Cycle + 1 the tally belongs to (0: none yet).
    stamp: u64,
    calls: u64,
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

impl Tally {
    fn add(&mut self, cycle: u64, start_ns: u64, end_ns: u64) {
        if self.stamp != cycle + 1 {
            *self = Tally {
                stamp: cycle + 1,
                first_ns: start_ns,
                ..Tally::default()
            };
        }
        self.calls += 1;
        self.busy_ns += end_ns - start_ns;
        self.last_ns = end_ns;
    }

    fn at(&self, cycle: u64) -> Option<&Tally> {
        (self.stamp == cycle + 1 && self.calls > 0).then_some(self)
    }
}

/// What [`Timed`] observed in the current cycle.
#[derive(Clone, Debug, Default)]
pub struct Taps {
    route: Tally,
    inject: Tally,
    /// Per router: cycle + 1 of its last `route` call.
    seen: Vec<u64>,
    active_stamp: u64,
    active: u32,
}

impl Taps {
    fn mark(&mut self, router: usize, cycle: u64) {
        if self.active_stamp != cycle + 1 {
            self.active_stamp = cycle + 1;
            self.active = 0;
        }
        if router >= self.seen.len() {
            self.seen.resize(router + 1, 0);
        }
        if self.seen[router] != cycle + 1 {
            self.seen[router] = cycle + 1;
            self.active += 1;
        }
    }

    fn active_at(&self, cycle: u64) -> u32 {
        if self.active_stamp == cycle + 1 {
            self.active
        } else {
            0
        }
    }
}

/// A policy that can hand its per-cycle routing tallies to the trace.
pub trait Tapped: Policy {
    /// The tallies, when this policy records them.
    fn taps(&self) -> Option<&Taps> {
        None
    }
}

impl Tapped for ofar_routing::Mechanism {}

/// Times every `route` and `on_inject` call of the wrapped policy and
/// otherwise behaves exactly like it: name, ring need, end-of-cycle hook
/// and snapshot state all pass through, so a traced run simulates the
/// same network bit for bit.
pub struct Timed<P> {
    inner: P,
    origin: Instant,
    taps: Taps,
}

impl<P> Timed<P> {
    /// Wrap `inner`, timing against `origin` (the trace's clock).
    pub fn new(inner: P, origin: Instant) -> Self {
        Self {
            inner,
            origin,
            taps: Taps::default(),
        }
    }
}

impl<P: Policy> Policy for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(
        &mut self,
        view: &RouterView<'_>,
        input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request> {
        let start = ns_since(self.origin);
        let req = self.inner.route(view, input, pkt);
        let end = ns_since(self.origin);
        self.taps.route.add(view.now, start, end);
        self.taps.mark(view.router.idx(), view.now);
        req
    }

    fn on_inject(&mut self, view: &RouterView<'_>, pkt: &mut Packet) -> usize {
        let start = ns_since(self.origin);
        let vc = self.inner.on_inject(view, pkt);
        let end = ns_since(self.origin);
        self.taps.inject.add(view.now, start, end);
        vc
    }

    fn end_cycle(&mut self, net: &NetSnapshot<'_>) {
        self.inner.end_cycle(net);
    }

    fn needs_ring(&self) -> bool {
        self.inner.needs_ring()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.inner.save_state(out);
    }

    fn load_state(&mut self, data: &[u8]) -> Result<(), String> {
        self.inner.load_state(data)
    }
}

impl<P: Policy> Tapped for Timed<P> {
    fn taps(&self) -> Option<&Taps> {
        Some(&self.taps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64, busy: u64) -> Span {
        Span {
            name,
            parent,
            cycle: 0,
            start_ns: start,
            end_ns: end,
            busy_ns: busy,
            calls: 1,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = vec![
            span("engine.step", None, 0, 100, 100),
            span("routing.on_inject", Some(0), 10, 20, 10),
            span("routing.route", Some(0), 30, 90, 45),
            span("snapshot.checkpoint", None, 100, 200, 100),
            span("snapshot.save", Some(3), 100, 150, 50),
        ];
        assert_eq!(self_times(&spans), vec![45, 10, 45, 50, 50]);
    }

    #[test]
    fn tallies_reset_per_cycle_and_count_distinct_routers() {
        let mut taps = Taps::default();
        taps.route.add(0, 5, 7);
        taps.mark(3, 0);
        taps.route.add(0, 9, 12);
        taps.mark(3, 0);
        taps.route.add(1, 20, 21);
        taps.mark(3, 1);
        taps.mark(4, 1);
        assert!(taps.route.at(0).is_none(), "cycle 0 was superseded");
        let t = taps.route.at(1).expect("cycle 1 tallied");
        assert_eq!((t.calls, t.busy_ns, t.first_ns, t.last_ns), (1, 1, 20, 21));
        assert_eq!(taps.active_at(1), 2);
        assert_eq!(taps.active_at(0), 0);
    }
}

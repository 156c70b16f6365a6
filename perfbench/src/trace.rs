//! Per-layer host timing taken from outside the program: decorators around
//! the public [`Workload`] and [`PlacementPolicy`] traits record a span for
//! every call that crosses a layer boundary. The decorators only forward,
//! so a wrapped run simulates exactly what an unwrapped one does.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tiered_mem::{PageType, Pfn, Pid, Vpn};
use tiered_sim::{Op, SimRng, Workload};
use tpp::policy::{FaultOutcome, PlacementPolicy, PolicyCtx};

/// Calls into one layer and the host time they took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
    /// The longest single call, ns.
    pub max_ns: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean host ns per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Every layer boundary the decorators see.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// `Workload::next_op`.
    pub next_op: Span,
    /// `PlacementPolicy::handle_fault`.
    pub fault: Span,
    /// `PlacementPolicy::on_hint_fault`.
    pub hint_fault: Span,
    /// `PlacementPolicy::tick`.
    pub tick: Span,
}

impl Layers {
    /// Host ns inside any timed call.
    pub fn timed_ns(&self) -> u64 {
        self.next_op.ns + self.fault.ns + self.hint_fault.ns + self.tick.ns
    }
}

/// Collects spans from the decorators it hands out.
#[derive(Clone, Default)]
pub struct Tracer(Rc<RefCell<Layers>>);

impl Tracer {
    /// Wraps a workload so that its `next_op` calls are timed.
    pub fn wrap_workload(&self, inner: Box<dyn Workload>) -> Box<dyn Workload> {
        Box::new(TimedWorkload {
            inner,
            layers: self.clone(),
        })
    }

    /// Wraps a policy so that its fault, hint-fault and tick calls are
    /// timed.
    pub fn wrap_policy(&self, inner: Box<dyn PlacementPolicy>) -> Box<dyn PlacementPolicy> {
        Box::new(TimedPolicy {
            inner,
            layers: self.clone(),
        })
    }

    /// The spans recorded so far.
    pub fn layers(&self) -> Layers {
        *self.0.borrow()
    }

    fn record(&self, pick: impl FnOnce(&mut Layers) -> &mut Span, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        pick(&mut self.0.borrow_mut()).add(ns);
    }
}

struct TimedWorkload {
    inner: Box<dyn Workload>,
    layers: Tracer,
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pid(&self) -> Pid {
        self.inner.pid()
    }

    fn next_op(&mut self, now_ns: u64, rng: &mut SimRng) -> Op {
        let start = Instant::now();
        let op = self.inner.next_op(now_ns, rng);
        self.layers.record(|l| &mut l.next_op, start);
        op
    }

    fn working_set_pages(&self) -> u64 {
        self.inner.working_set_pages()
    }
}

struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    layers: Tracer,
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn validate_config(
        &self,
        memory: &tiered_mem::Memory,
    ) -> Result<(), tpp::policy::UnsupportedConfig> {
        self.inner.validate_config(memory)
    }

    fn handle_fault(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        pid: Pid,
        vpn: Vpn,
        page_type: PageType,
    ) -> FaultOutcome {
        let start = Instant::now();
        let out = self.inner.handle_fault(ctx, pid, vpn, page_type);
        self.layers.record(|l| &mut l.fault, start);
        out
    }

    fn on_hint_fault(&mut self, ctx: &mut PolicyCtx<'_>, pfn: Pfn) -> u64 {
        let start = Instant::now();
        let cost = self.inner.on_hint_fault(ctx, pfn);
        self.layers.record(|l| &mut l.hint_fault, start);
        cost
    }

    fn tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        let start = Instant::now();
        self.inner.tick(ctx);
        self.layers.record(|l| &mut l.tick, start);
    }

    fn tick_period_ns(&self) -> u64 {
        self.inner.tick_period_ns()
    }
}

//! The traced run's handler spans, recorded from outside the program.
//!
//! [`Traced`] is a device storage that wraps every device of a built
//! world. `GenericWorld::map_devices` swaps it in at a quiescent point;
//! from then on each handler call (`on_start`, `on_frame`, `on_timer`,
//! `on_control`) is timed with `Instant` and counted against the device's
//! class, found once by downcasting. Mapping the world back to
//! `Box<dyn Device>` flushes every device's tally into a process-wide
//! per-class total, read with [`take_totals`].
//!
//! `map_devices` and the `DeviceStore` trait are the program's only
//! public hook for interposing on handler calls; removing them breaks
//! this module, and the traced run with it.
//!
//! A handler span covers everything the handler does synchronously,
//! including the link and scheduler work of the frames it sends. World
//! self time is the traced wall minus the sum of all spans: the event
//! loop, link arrivals and CPU-model events that run outside handlers.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bytes::Bytes;
use netco_adversary::MaliciousSwitch;
use netco_core::GuardSwitch;
use netco_net::{Ctx, Device, DeviceStore, Frame, NodeId, PortId};
use netco_openflow::OfSwitch;
use netco_traffic::{FlowSet, FlowSink, IcmpEchoResponder, Pinger};

/// Device classes the trace splits handler time by, declared in
/// [`Class::ALL`] order (a class's discriminant is its index there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Inband guard; its time includes the embedded compare.
    Guard,
    /// OpenFlow switch (replicas and plain routers).
    OfSwitch,
    /// Adversarial replica.
    Malicious,
    /// Million-flow traffic source.
    FlowSet,
    /// Million-flow traffic sink.
    FlowSink,
    /// ICMP echo requester.
    Pinger,
    /// ICMP echo responder.
    Echo,
    /// The lattice's ping-pong host. Its type is private to its builder,
    /// so it is reached through [`set_unknown_class`].
    PingPong,
    /// Anything else.
    Other,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 9] = [
        Class::Guard,
        Class::OfSwitch,
        Class::Malicious,
        Class::FlowSet,
        Class::FlowSink,
        Class::Pinger,
        Class::Echo,
        Class::PingPong,
        Class::Other,
    ];

    /// Metric-name segment (`dev.<name>.*`).
    pub fn name(self) -> &'static str {
        match self {
            Class::Guard => "guard",
            Class::OfSwitch => "ofswitch",
            Class::Malicious => "malicious",
            Class::FlowSet => "flowset",
            Class::FlowSink => "flowsink",
            Class::Pinger => "pinger",
            Class::Echo => "echo",
            Class::PingPong => "pingpong",
            Class::Other => "other",
        }
    }

    fn of(device: &dyn Any) -> Class {
        if device.is::<GuardSwitch>() {
            Class::Guard
        } else if device.is::<OfSwitch>() {
            Class::OfSwitch
        } else if device.is::<MaliciousSwitch>() {
            Class::Malicious
        } else if device.is::<FlowSet>() {
            Class::FlowSet
        } else if device.is::<FlowSink>() {
            Class::FlowSink
        } else if device.is::<Pinger>() {
            Class::Pinger
        } else if device.is::<IcmpEchoResponder>() {
            Class::Echo
        } else {
            Class::ALL[UNKNOWN_CLASS.load(Ordering::Relaxed)]
        }
    }
}

/// Handler calls and their summed duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Handler calls.
    pub calls: u64,
    /// Nanoseconds inside handlers.
    pub busy_ns: u64,
}

/// Index into [`Class::ALL`] for devices no downcast recognises.
static UNKNOWN_CLASS: AtomicUsize = AtomicUsize::new(Class::ALL.len() - 1);

static TOTALS: Mutex<[Tally; Class::ALL.len()]> = Mutex::new(
    [Tally {
        calls: 0,
        busy_ns: 0,
    }; Class::ALL.len()],
);

/// Sets the class of devices no downcast recognises (default
/// [`Class::Other`]). Call before `map_devices::<Traced>()`.
pub fn set_unknown_class(class: Class) {
    UNKNOWN_CLASS.store(class as usize, Ordering::Relaxed);
}

/// Returns the per-class totals flushed so far, in [`Class::ALL`] order,
/// and zeroes them.
pub fn take_totals() -> [Tally; Class::ALL.len()] {
    std::mem::take(&mut *TOTALS.lock().expect("trace totals lock poisoned"))
}

/// A device wrapped with its class and handler tally.
pub struct Traced {
    inner: Box<dyn Device>,
    class: Class,
    tally: Tally,
}

impl Traced {
    #[inline]
    fn timed(&mut self, handler: impl FnOnce(&mut Box<dyn Device>)) {
        let start = Instant::now();
        handler(&mut self.inner);
        self.tally.busy_ns += start.elapsed().as_nanos() as u64;
        self.tally.calls += 1;
    }
}

impl DeviceStore for Traced {
    fn from_dyn(device: Box<dyn Device>) -> Self {
        let class = Class::of(DeviceStore::inner_any(&device));
        Traced {
            inner: device,
            class,
            tally: Tally::default(),
        }
    }

    fn into_dyn(self) -> Box<dyn Device> {
        let mut totals = TOTALS.lock().expect("trace totals lock poisoned");
        let total = &mut totals[self.class as usize];
        total.calls += self.tally.calls;
        total.busy_ns += self.tally.busy_ns;
        self.inner
    }

    fn dispatch_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(|d| d.on_start(ctx));
    }

    fn dispatch_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        self.timed(|d| d.on_frame(ctx, port, frame));
    }

    fn dispatch_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.timed(|d| d.on_timer(ctx, token));
    }

    fn dispatch_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Bytes) {
        self.timed(|d| d.on_control(ctx, from, msg));
    }

    fn inner_any(&self) -> &dyn Any {
        DeviceStore::inner_any(&self.inner)
    }

    fn inner_any_mut(&mut self) -> &mut dyn Any {
        DeviceStore::inner_any_mut(&mut self.inner)
    }
}

//! The [`Device`] trait and the per-invocation context handle.

use std::any::Any;

use bytes::Bytes;
use netco_sim::{SimDuration, SimRng, SimTime};

use crate::frame::Frame;
use crate::id::{NodeId, PortId};
use crate::world::Substrate;

/// A node participating in the simulated network.
///
/// Devices receive frames (after link propagation and CPU service), timers
/// they scheduled, and control-plane messages. They react through the
/// [`Ctx`] handle. Implementations live across the workspace: OpenFlow
/// switches, NetCo hubs and compares, hosts with traffic apps, controllers,
/// and adversarial wrappers.
///
/// The `Any` supertrait enables post-run inspection via
/// [`crate::World::device`]. The `Send` supertrait lets the
/// region-parallel executor move a shard's devices onto a pool worker;
/// devices never need `Sync` (each is owned by exactly one region).
pub trait Device: Any + Send {
    /// Invoked once when the simulation starts (or when the node is added
    /// to an already-running world). Typical use: schedule the first timer
    /// or send the first packet.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A frame has been received on `port` and has cleared this node's CPU.
    ///
    /// The [`Frame`] carries memoized derived data (fingerprint, parsed
    /// header fields) shared with every other clone of the same content.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame);

    /// A timer scheduled via [`Ctx::schedule_timer`] has fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// A control-plane message from `from` has arrived and cleared the CPU.
    fn on_control(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Bytes) {}
}

impl Device for Box<dyn Device> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        (**self).on_start(ctx);
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        (**self).on_frame(ctx, port, frame);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        (**self).on_timer(ctx, token);
    }
    fn on_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Bytes) {
        (**self).on_control(ctx, from, msg);
    }
}

/// How a world stores and invokes its devices — the axis the
/// [`GenericWorld`](crate::GenericWorld) event loop is generic over.
///
/// The one production storage is `Box<dyn Device>` (the
/// [`World`](crate::World) alias): every scenario, grid and topology
/// constructor produces it and every run uses it. The trait exists as an
/// interposition hook: a wrapper storage can sit between the event loop
/// and each device — the benchmark's traced run wraps every device to
/// time each handler call by device class — without touching the loop or
/// the devices.
///
/// `from_dyn`/`into_dyn` round-trip through the boxed interchange form, so
/// a world can be converted between strategies at any quiescent point
/// ([`GenericWorld::map_devices`](crate::GenericWorld::map_devices)) and a
/// region shard can hand devices across threads without knowing the
/// concrete types inside.
///
/// The dispatch hooks are deliberately *not* named like the [`Device`]
/// methods: `Box<dyn Device>` implements both traits, and identical names
/// would make every call site ambiguous.
pub trait DeviceStore: Send + 'static {
    /// Wraps a boxed device in this storage form.
    fn from_dyn(device: Box<dyn Device>) -> Self;

    /// Unwraps back to the boxed interchange form, preserving all device
    /// state.
    fn into_dyn(self) -> Box<dyn Device>;

    /// Dispatches [`Device::on_start`].
    fn dispatch_start(&mut self, ctx: &mut Ctx<'_>);

    /// Dispatches [`Device::on_frame`].
    fn dispatch_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame);

    /// Dispatches [`Device::on_timer`].
    fn dispatch_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// Dispatches [`Device::on_control`].
    fn dispatch_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Bytes);

    /// The stored device as `Any`, for concrete-type downcasts
    /// ([`crate::World::device`]). Implementations unwrap their own
    /// storage layers (wrappers, double boxing) so the returned `Any`
    /// is the user's concrete device type.
    fn inner_any(&self) -> &dyn Any;

    /// Mutable counterpart of [`inner_any`](DeviceStore::inner_any).
    fn inner_any_mut(&mut self) -> &mut dyn Any;
}

impl DeviceStore for Box<dyn Device> {
    fn from_dyn(device: Box<dyn Device>) -> Self {
        device
    }

    fn into_dyn(self) -> Box<dyn Device> {
        self
    }

    #[inline]
    fn dispatch_start(&mut self, ctx: &mut Ctx<'_>) {
        (**self).on_start(ctx);
    }

    #[inline]
    fn dispatch_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: Frame) {
        (**self).on_frame(ctx, port, frame);
    }

    #[inline]
    fn dispatch_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        (**self).on_timer(ctx, token);
    }

    #[inline]
    fn dispatch_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Bytes) {
        (**self).on_control(ctx, from, msg);
    }

    fn inner_any(&self) -> &dyn Any {
        let any: &dyn Any = self.as_ref();
        // Nodes added as a pre-boxed `Box<dyn Device>` carry one extra
        // level of boxing (`add_node` re-boxes); unwrap it so downcasts
        // reach the concrete device.
        match any.downcast_ref::<Box<dyn Device>>() {
            Some(inner) => inner.as_ref(),
            None => any,
        }
    }

    fn inner_any_mut(&mut self) -> &mut dyn Any {
        if (self.as_ref() as &dyn Any).is::<Box<dyn Device>>() {
            let outer: &mut dyn Any = self.as_mut();
            return outer
                .downcast_mut::<Box<dyn Device>>()
                .expect("checked double box")
                .as_mut();
        }
        self.as_mut()
    }
}

/// The capabilities a [`Device`] has while handling an event.
///
/// `Ctx` borrows the world's device-free substrate (scheduler, links,
/// counters, RNG) while the device itself is borrowed separately from the
/// device table, so a device can never re-enter itself — and the context
/// stays non-generic no matter how the world stores its devices.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut Substrate,
    pub(crate) node: NodeId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// The id of the device handling this event.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's deterministic random stream, derived from the world
    /// seed and the node id — a node draws the same sequence no matter
    /// which worker executes its region.
    pub fn rng(&mut self) -> &mut SimRng {
        self.core.node_rng(self.node)
    }

    /// Transmits `frame` out of `port`.
    ///
    /// The frame is subject to the attached link's queue, serialization and
    /// propagation models, and then to the receiving node's CPU model.
    /// Sending on a port with no attached link silently discards the frame
    /// (counted as a tx drop) — matching a cable that isn't plugged in.
    ///
    /// Accepts anything convertible into a [`Frame`] ([`Bytes`],
    /// `Vec<u8>`, or a `Frame` whose memo is preserved across the hop).
    pub fn send_frame(&mut self, port: PortId, frame: impl Into<Frame>) {
        self.core.transmit(self.node, port, frame.into());
    }

    /// Schedules [`Device::on_timer`] with `token` after `delay`.
    pub fn schedule_timer(&mut self, delay: SimDuration, token: u64) {
        self.core.schedule_timer(self.node, delay, token);
    }

    /// Sends a control-plane message to `peer`.
    ///
    /// Requires a control channel registered between the two nodes
    /// ([`crate::World::connect_control`]); the message is silently dropped
    /// (and counted) otherwise.
    pub fn send_control(&mut self, peer: NodeId, msg: Bytes) {
        self.core.send_control(self.node, peer, msg);
    }

    /// The ports of this node that have a link attached, in ascending order.
    pub fn ports(&self) -> Vec<PortId> {
        self.core.ports_of(self.node)
    }

    /// Human-readable name of a node (for logs and assertions).
    pub fn node_name(&self, id: NodeId) -> &str {
        self.core.name_of(id)
    }

    /// The world's telemetry sink (disabled unless the experiment
    /// installed one via [`crate::World::set_telemetry`]). Devices use it
    /// to register their own counters and emit spans; with the default
    /// disabled sink every such call is a no-op.
    pub fn telemetry(&self) -> &netco_telemetry::TelemetrySink {
        &self.core.telemetry
    }
}

// Package network provides the collective's communication substrate:
// an in-memory message bus with configurable latency, loss and
// partitions; a device registry with discovery notifications (the
// trigger for generative policy creation); and an anti-entropy gossip
// protocol for sharing policies and learned intelligence between
// devices ("enabling devices to share the intelligence they learn",
// Section I).
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Common bus errors.
var (
	// ErrUnknownNode is returned when sending to a node that is not
	// attached.
	ErrUnknownNode = errors.New("network: unknown node")
	// ErrDropped is returned when the message was lost or blocked by a
	// partition.
	ErrDropped = errors.New("network: message dropped")
	// ErrNoEngine is returned by Send on a bus built without WithEngine:
	// every delivery is an engine event, so such a bus is only an
	// attachment table and refuses traffic instead of delivering inline.
	ErrNoEngine = errors.New("network: bus has no engine")
)

// Message is one unit of communication between devices.
type Message struct {
	From    string
	To      string
	Topic   string
	Payload any
}

// Handler consumes delivered messages.
type Handler func(Message)

// LaneHandler consumes delivered messages together with the delivery
// event's engine lane, so ordered side effects (audit appends, future
// schedules) stay deterministic when the engine runs in parallel.
type LaneHandler func(Message, *sim.Lane)

// endpoint is one attached node: exactly one of the two handler forms
// is set. Plain handlers are delivered as serial barrier events; lane
// handlers are delivered as events sharded by recipient ID, so an
// engine running in parallel may deliver to different recipients
// concurrently while each recipient's deliveries stay ordered.
type endpoint struct {
	h  Handler
	lh LaneHandler
}

// call invokes the endpoint from inside a delivery event; lane is nil
// only for plain handlers, which never see it.
func (ep endpoint) call(msg Message, lane *sim.Lane) {
	if ep.lh != nil {
		ep.lh(msg, lane)
		return
	}
	ep.h(msg)
}

// Bus is an in-memory message bus. Every delivery is an event on the
// attached engine, scheduled with uniform random latency; a bus without
// an engine refuses Send. Loss probability and partitions model
// degraded coalition networks. All methods are safe for concurrent use.
type Bus struct {
	mu          sync.Mutex
	rng         *rand.Rand
	engine      *sim.Engine
	metrics     *sim.Metrics
	intake      *admission.Controller
	cSent       *telemetry.Counter
	cDelivered  *telemetry.Counter
	cDropLoss   *telemetry.Counter
	cDropPart   *telemetry.Counter
	cDropOneWay *telemetry.Counter
	cDup        *telemetry.Counter
	nodes       map[string]endpoint
	partition   map[string]int
	oneWay      map[string]map[string]bool
	lossProb    float64
	dupProb     float64
	minLatency  time.Duration
	maxLatency  time.Duration
	sent        int
	delivered   int
	dropped     int
	shed        int
	pending     int
	duplicated  int
	bridgeDrop  int
}

// BusOption configures a Bus.
type BusOption interface {
	apply(*Bus)
}

type busOptionFunc func(*Bus)

func (f busOptionFunc) apply(b *Bus) { f(b) }

// WithEngine attaches the simulation engine that runs every delivery,
// scheduled with the configured latency. Without it the bus only keeps
// its attachment table and Send returns ErrNoEngine.
func WithEngine(e *sim.Engine) BusOption {
	return busOptionFunc(func(b *Bus) { b.engine = e })
}

// WithLatency sets the uniform delivery latency range.
func WithLatency(min, max time.Duration) BusOption {
	return busOptionFunc(func(b *Bus) {
		if min < 0 {
			min = 0
		}
		if max < min {
			max = min
		}
		b.minLatency, b.maxLatency = min, max
	})
}

// WithLoss sets the probability a message is silently lost.
func WithLoss(p float64) BusOption {
	return busOptionFunc(func(b *Bus) { b.lossProb = clamp01(p) })
}

// WithDuplication sets the probability a delivered message is
// delivered a second time (with independent latency, so duplicates
// also reorder).
func WithDuplication(p float64) BusOption {
	return busOptionFunc(func(b *Bus) { b.dupProb = clamp01(p) })
}

// WithMetrics mirrors the bus's delivery accounting into a metrics
// registry (bus.sent, bus.delivered, bus.dropped labeled by cause, and
// bus.duplicated), making the fault model observable by experiments.
func WithMetrics(m *sim.Metrics) BusOption {
	return busOptionFunc(func(b *Bus) {
		b.metrics = m
		if reg := m.Registry(); reg != nil {
			b.cSent = reg.Counter("bus.sent")
			b.cDelivered = reg.Counter("bus.delivered")
			b.cDropLoss = reg.Counter("bus.dropped", "cause", "loss")
			b.cDropPart = reg.Counter("bus.dropped", "cause", "partition")
			b.cDropOneWay = reg.Counter("bus.dropped", "cause", "oneway")
			b.cDup = reg.Counter("bus.duplicated")
		}
	})
}

// WithAdmission puts an admission controller in front of delivery:
// every Send that passes the fault model is classified by topic and
// either admitted into the recipient's bounded intake queue or shed
// with a typed cause (admission.ErrQueueFull,
// admission.ErrRateLimited). Queues drain in batches on engine events
// sharded by recipient, so a fixed seed yields identical delivery
// sequences at any parallelism.
func WithAdmission(ctrl *admission.Controller) BusOption {
	return busOptionFunc(func(b *Bus) {
		b.intake = ctrl
		// A queued original displaced by a higher-priority arrival
		// must leave the bus's books as a shed, not vanish: the
		// controller already counted it (admission.shed, cause
		// queue_full), the hook keeps sent == delivered + dropped +
		// shed + pending exact. Evicted duplicates touch nothing —
		// they were never counted.
		ctrl.SetOnEvict(func(_ string, it admission.Item) {
			am, ok := it.Payload.(admittedMsg)
			if !ok || am.dup {
				return
			}
			b.mu.Lock()
			b.pending--
			b.shed++
			b.mu.Unlock()
		})
	})
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// NewBus builds a bus. The random source drives loss, duplication and
// latency sampling; when faults are configured with a nil rng the bus
// defaults to a fixed-seed source at configuration time, so a chaos
// schedule can never be a silent no-op.
func NewBus(rng *rand.Rand, opts ...BusOption) *Bus {
	b := &Bus{
		rng:       rng,
		nodes:     make(map[string]endpoint),
		partition: make(map[string]int),
	}
	for _, o := range opts {
		o.apply(b)
	}
	b.ensureRNGLocked()
	return b
}

// Presize grows the endpoint table to hold n lanes without incremental
// rehashing — call it before attaching a fleet of known size. It is a
// hint, not a limit, and is cheapest on a still-empty bus.
func (b *Bus) Presize(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= len(b.nodes) {
		return
	}
	nodes := make(map[string]endpoint, n)
	for k, v := range b.nodes {
		nodes[k] = v
	}
	b.nodes = nodes
}

// ensureRNGLocked guarantees a random source exists whenever loss,
// duplication or a latency spread is configured. Sampling guards used
// to skip fault injection silently when the rng was nil; defaulting
// the source (fixed seed, reproducible) at every configuration point
// makes that state unrepresentable.
func (b *Bus) ensureRNGLocked() {
	if b.rng == nil && (b.lossProb > 0 || b.dupProb > 0 || b.maxLatency > b.minLatency) {
		b.rng = rand.New(rand.NewSource(1))
	}
}

// Attach registers a node's handler under its ID. Deliveries to plain
// handlers are scheduled as serial barrier events; use AttachLane when
// the handler is shard-safe (touches only the recipient's own state).
func (b *Bus) Attach(id string, h Handler) error {
	if h == nil {
		return errors.New("network: attach requires an id and handler")
	}
	return b.attach(id, endpoint{h: h})
}

// AttachLane registers a shard-safe handler: deliveries are scheduled
// as engine events sharded by recipient ID, so a parallel engine may
// run deliveries to different recipients concurrently. The handler must
// confine mutable state to the recipient (plus commutative telemetry)
// and route audit appends and re-schedules through the lane.
func (b *Bus) AttachLane(id string, h LaneHandler) error {
	if h == nil {
		return errors.New("network: attach requires an id and handler")
	}
	return b.attach(id, endpoint{lh: h})
}

func (b *Bus) attach(id string, ep endpoint) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if id == "" {
		return errors.New("network: attach requires an id and handler")
	}
	if _, dup := b.nodes[id]; dup {
		return fmt.Errorf("network: node %q already attached", id)
	}
	b.nodes[id] = ep
	return nil
}

// Detach removes a node and reports whether it was attached.
func (b *Bus) Detach(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.nodes[id]
	delete(b.nodes, id)
	delete(b.partition, id)
	return ok
}

// Nodes returns the attached node IDs, sorted.
func (b *Bus) Nodes() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.nodes))
	for id := range b.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Partition assigns nodes to partition groups; nodes in different
// groups cannot exchange messages. Unlisted nodes stay in group 0.
func (b *Bus) Partition(groups map[string]int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partition = make(map[string]int, len(groups))
	for id, g := range groups {
		b.partition[id] = g
	}
}

// Heal removes all partitions, symmetric and one-way.
func (b *Bus) Heal() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partition = make(map[string]int)
	b.oneWay = nil
}

// PartitionOneWay blocks messages from any node in from to any node in
// to — but not the reverse direction. This is the asymmetric-partition
// fault: a push can arrive while its acknowledgement is lost (or vice
// versa), the failure mode anti-entropy repair exists for. Calls
// accumulate; HealOneWay or Heal clears them. Blocked sends are
// dropped with cause "oneway" on the bus's books.
func (b *Bus) PartitionOneWay(from, to []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.oneWay == nil {
		b.oneWay = make(map[string]map[string]bool)
	}
	for _, f := range from {
		blocked := b.oneWay[f]
		if blocked == nil {
			blocked = make(map[string]bool, len(to))
			b.oneWay[f] = blocked
		}
		for _, t := range to {
			blocked[t] = true
		}
	}
}

// HealOneWay removes every one-way block, leaving symmetric
// partitions in place.
func (b *Bus) HealOneWay() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.oneWay = nil
}

// SetLoss changes the loss probability at runtime (fault injection).
// A bus built without a random source gets a fixed-seed one here, so
// the injected fault always takes effect.
func (b *Bus) SetLoss(p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lossProb = clamp01(p)
	b.ensureRNGLocked()
}

// SetDuplication changes the duplication probability at runtime, with
// the same rng-defaulting guarantee as SetLoss.
func (b *Bus) SetDuplication(p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dupProb = clamp01(p)
	b.ensureRNGLocked()
}

// SetLatency changes the delivery latency range at runtime (slow-link
// fault injection).
func (b *Bus) SetLatency(min, max time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	b.minLatency, b.maxLatency = min, max
	b.ensureRNGLocked()
}

// Send schedules delivery of a message to msg.To on the bus's engine.
// It returns ErrNoEngine on a bus without one (the message is not
// counted as sent), ErrUnknownNode for unattached receivers and
// ErrDropped for losses and partition blocks. Delivery is asynchronous:
// Send reports only send-time failures.
//
// Determinism note: loss, duplication and latency are sampled from the
// bus rng at Send time, so the sampling order — and therefore the fault
// pattern — is reproducible only when Sends happen serially (from
// barrier events or between runs). Sends from concurrent sharded
// callbacks are race-safe but draw from the rng in worker order; keep
// the bus fault-free with fixed latency if such a run must be
// deterministic.
func (b *Bus) Send(msg Message) error {
	if b.engine == nil {
		return ErrNoEngine
	}
	b.mu.Lock()
	ep, ok := b.nodes[msg.To]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, msg.To)
	}
	b.sent++
	b.cSent.Inc()
	if b.partition[msg.From] != b.partition[msg.To] {
		b.dropped++
		b.cDropPart.Inc()
		b.mu.Unlock()
		return fmt.Errorf("%w: partition between %q and %q", ErrDropped, msg.From, msg.To)
	}
	if b.oneWay != nil && b.oneWay[msg.From][msg.To] {
		b.dropped++
		b.cDropOneWay.Inc()
		b.mu.Unlock()
		return fmt.Errorf("%w: one-way partition %q -> %q", ErrDropped, msg.From, msg.To)
	}
	if b.lossProb > 0 && b.rng != nil && b.rng.Float64() < b.lossProb {
		b.dropped++
		b.cDropLoss.Inc()
		b.mu.Unlock()
		return fmt.Errorf("%w: loss", ErrDropped)
	}
	intake := b.intake
	latency := b.sampleLatencyLocked()
	duplicate := b.dupProb > 0 && b.rng != nil && b.rng.Float64() < b.dupProb
	var dupLatency time.Duration
	if duplicate && intake == nil {
		// An independent latency sample makes duplicates arrive out of
		// order relative to the original.
		dupLatency = b.sampleLatencyLocked()
		b.duplicated++
		b.cDup.Inc()
	}
	if intake != nil {
		b.mu.Unlock()
		return b.sendAdmitted(msg, ep, intake, latency, duplicate)
	}
	b.delivered++
	b.cDelivered.Inc()
	b.mu.Unlock()

	b.scheduleDelivery(latency, ep, msg)
	if duplicate {
		b.scheduleDelivery(dupLatency, ep, msg)
	}
	return nil
}

// Engine returns the engine that runs the bus's deliveries (nil for an
// attachment-only bus).
func (b *Bus) Engine() *sim.Engine { return b.engine }

// admittedMsg is one bus message queued behind the admission
// controller; dup marks the extra copy injected by the duplication
// fault (delivered, but not counted as a delivered original).
type admittedMsg struct {
	msg Message
	dup bool
}

// sendAdmitted runs the admission-controlled tail of Send: the message
// is classified by topic and admitted or shed; admitted messages drain
// to the endpoint in priority order, in batched drain events sharded by
// recipient.
func (b *Bus) sendAdmitted(msg Message, ep endpoint, intake *admission.Controller,
	latency time.Duration, duplicate bool) error {
	// Classify by string switch, not by interned ID: the admission
	// package's BenchmarkClassifyTopic* shows an intern lookup per
	// message (~40ns) costs more than comparing short topic strings
	// directly (~6ns). Interned IDs pay off where they are held and
	// reused — dense fleet indices, not one-shot classification.
	class := admission.ClassifyTopic(msg.Topic)
	if err := intake.Admit(msg.To, class, admittedMsg{msg: msg}); err != nil {
		b.mu.Lock()
		b.shed++
		b.mu.Unlock()
		return err
	}
	b.mu.Lock()
	b.pending++
	b.mu.Unlock()
	if duplicate {
		// The duplicate is a second admission attempt: under pressure
		// it sheds like any other arrival instead of bypassing the
		// bound. It stays off the conservation books — it counts as
		// duplicated only if it actually reaches the recipient.
		_ = intake.Admit(msg.To, class, admittedMsg{msg: msg, dup: true})
	}
	if intake.BeginDrain(msg.To) {
		b.scheduleDrain(latency, msg.To, ep)
	}
	return nil
}

// scheduleDrain queues one drain pass for the recipient: sharded by
// recipient for lane handlers, as a serial barrier for plain ones
// (which may touch shared state).
func (b *Bus) scheduleDrain(delay time.Duration, to string, ep endpoint) {
	if ep.lh != nil {
		b.engine.ScheduleShard(delay, to, func(lane *sim.Lane) { b.drainPass(to, ep, lane) })
		return
	}
	b.engine.Schedule(delay, func() { b.drainPass(to, ep, nil) })
}

// drainPass delivers one batch from the recipient's intake queue and
// reschedules itself (through the lane, keeping parallel runs
// deterministic) while messages remain.
func (b *Bus) drainPass(to string, ep endpoint, lane *sim.Lane) {
	intake := b.intake
	items := intake.Drain(to)
	b.deliverAdmitted(items, ep, lane)
	if !intake.FinishDrain(to) {
		return
	}
	delay := intake.DrainInterval()
	if ep.lh != nil {
		lane.ScheduleShard(delay, to, func(l *sim.Lane) { b.drainPass(to, ep, l) })
		return
	}
	b.engine.Schedule(delay, func() { b.drainPass(to, ep, nil) })
}

// deliverAdmitted hands drained items to the endpoint: originals move
// from pending to delivered, duplicates count as duplicated.
func (b *Bus) deliverAdmitted(items []admission.Item, ep endpoint, lane *sim.Lane) {
	for _, it := range items {
		am, ok := it.Payload.(admittedMsg)
		if !ok {
			continue
		}
		b.mu.Lock()
		if am.dup {
			b.duplicated++
		} else {
			b.pending--
			b.delivered++
		}
		b.mu.Unlock()
		if am.dup {
			b.cDup.Inc()
		} else {
			b.cDelivered.Inc()
		}
		ep.call(am.msg, lane)
	}
}

// scheduleDelivery queues one delivery on the engine: sharded by
// recipient for lane handlers, as a serial barrier for plain ones.
func (b *Bus) scheduleDelivery(latency time.Duration, ep endpoint, msg Message) {
	if ep.lh != nil {
		b.engine.ScheduleShard(latency, msg.To, func(lane *sim.Lane) { ep.lh(msg, lane) })
		return
	}
	b.engine.Schedule(latency, func() { ep.h(msg) })
}

// Broadcast sends the payload to every attached node except the
// sender. It returns the number of successful (or scheduled)
// deliveries.
func (b *Bus) Broadcast(from, topic string, payload any) int {
	n := 0
	for _, id := range b.Nodes() {
		if id == from {
			continue
		}
		if err := b.Send(Message{From: from, To: id, Topic: topic, Payload: payload}); err == nil {
			n++
		}
	}
	return n
}

// Stats returns the delivered and dropped message counts. Every Send
// to an attached receiver counts exactly once as delivered, dropped,
// shed, or still queued behind admission, so
// sent == delivered + dropped + shed + pending at every instant
// (duplicates are tracked separately by Duplicated; CheckConservation
// asserts the invariant).
func (b *Bus) Stats() (delivered, dropped int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.delivered, b.dropped
}

// Sent returns how many Send calls addressed an attached recipient.
func (b *Bus) Sent() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sent
}

// Shed returns how many sends the admission controller refused with a
// typed cause (queue full, rate limited).
func (b *Bus) Shed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shed
}

// PendingAdmitted returns how many admitted originals are still
// queued awaiting drain (0 without an admission controller;
// fault-injected duplicates queue alongside but are not counted
// here).
func (b *Bus) PendingAdmitted() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pending
}

// BridgeDropped returns how many wire-bridged messages the bus
// refused (see BridgeToBus).
func (b *Bus) BridgeDropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bridgeDrop
}

// CheckConservation verifies the bus's books balance exactly:
// sent == delivered + dropped + shed + pending. Every message a
// caller handed to an attached recipient is therefore provably
// delivered, dropped-with-cause, shed-with-cause, or still queued —
// there is no silent path out.
func (b *Bus) CheckConservation() error {
	b.mu.Lock()
	sent, delivered, dropped, shed, pending := b.sent, b.delivered, b.dropped, b.shed, b.pending
	intake := b.intake
	b.mu.Unlock()
	if sent != delivered+dropped+shed+pending {
		return fmt.Errorf("network: conservation violated: sent %d != delivered %d + dropped %d + shed %d + pending %d",
			sent, delivered, dropped, shed, pending)
	}
	if intake != nil {
		if err := intake.CheckConservation(); err != nil {
			return err
		}
	}
	return nil
}

// countBridgeDrop records one wire-bridged message the bus refused.
func (b *Bus) countBridgeDrop(cause string) {
	b.mu.Lock()
	b.bridgeDrop++
	m := b.metrics
	b.mu.Unlock()
	if reg := m.Registry(); reg != nil {
		reg.Counter("bus.bridge_dropped", "cause", cause).Inc()
	}
}

// Duplicated returns how many messages were delivered twice by the
// duplication fault.
func (b *Bus) Duplicated() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.duplicated
}

func (b *Bus) sampleLatencyLocked() time.Duration {
	if b.maxLatency <= b.minLatency || b.rng == nil {
		return b.minLatency
	}
	span := b.maxLatency - b.minLatency
	return b.minLatency + time.Duration(b.rng.Int63n(int64(span)+1))
}

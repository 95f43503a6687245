package device

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/guard"
	"repro/internal/intern"
	"repro/internal/policy"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// Common device errors.
var (
	// ErrDeactivated is returned by operations on a shut-down device.
	ErrDeactivated = errors.New("device: deactivated")
	// ErrNoActuator is returned when an allowed action has no actuator
	// to execute it.
	ErrNoActuator = errors.New("device: no actuator for action")
)

// Config assembles a Device.
type Config struct {
	// ID uniquely identifies the device (required).
	ID string
	// Type is the device type used in interaction graphs (e.g.
	// "surveillance-drone").
	Type string
	// Organization names the coalition member operating the device.
	Organization string
	// Static is the device's static profile for the policy "device."
	// namespace: attributes and labels fixed at construction (type,
	// coalition, region, capabilities) that the decision plane
	// partially evaluates policies against (Snapshot.Specialize). When
	// empty, the canonical profile policy.DeviceProfile(Type,
	// Organization) is used, so type- and org-scoped policies fold for
	// every device.
	Static policy.StaticEnv
	// Initial is the device's starting state (required; it fixes the
	// schema).
	Initial statespace.State
	// Policies is the device's logic; nil creates an empty set.
	Policies *policy.Set
	// Guard checks every directed action before actuation; nil allows
	// everything (the unguarded experimental control).
	Guard guard.Guard
	// KillSwitch verifies deactivation tokens. Nil makes the device
	// refuse all remote deactivation (the paper's rogue-device risk).
	KillSwitch *guard.KillSwitch
	// Audit receives action records; nil disables auditing.
	Audit *audit.Log
	// Discharger executes attached obligations; nil skips them (and
	// Execution.ObligationErrs reports the omission).
	Discharger guard.ObligationDischarger
	// TrajectoryCapacity hints the trajectory's initial capacity.
	TrajectoryCapacity int
	// TrajectoryBound, when positive, bounds the trajectory to the most
	// recent TrajectoryBound states (a ring). Mega-fleet scenarios set
	// it so 10^5..10^6 devices do not retain full histories; windowed
	// decline detection needs only DeclineWindow+1 retained states.
	TrajectoryBound int
	// Arena, when set, backs the device's state scratch with slabs from
	// the shared arena instead of per-device heap allocations, packing
	// a whole fleet's (or shard's) state vectors contiguously.
	Arena *statespace.Arena
	// BoxedState disables the arena/scratch fast path: every state
	// transition allocates a fresh boxed State, as the original
	// implementation did. It exists for the differential property test
	// that proves the scratch path behavior-identical, and as an escape
	// hatch.
	BoxedState bool
	// Telemetry, when set, counts handled events (device.events) and
	// execution outcomes (device.executions). Nil disables the counters
	// at zero cost.
	Telemetry *telemetry.Registry
	// Tracer, when set, emits one span per handled event and per
	// executed action, parented on the trace context carried in the
	// event's labels — the causal chain from command intake to
	// actuation.
	Tracer *telemetry.Tracer
}

// Execution records what happened to one directed action.
type Execution struct {
	// Action is the action as finally executed (with attached
	// obligations) or as proposed when denied.
	Action policy.Action
	// Verdict is the guard's ruling.
	Verdict guard.Verdict
	// Err reports actuator failure for allowed actions.
	Err error
	// ObligationErrs maps obligation names to discharge failures.
	ObligationErrs map[string]error
}

// Executed reports whether the action was allowed and actuated without
// error.
func (e Execution) Executed() bool { return e.Verdict.Allowed() && e.Err == nil }

// Device is one autonomous unit in the collective. All methods are
// safe for concurrent use.
type Device struct {
	id   string
	typ  string
	org  string
	kill *guard.KillSwitch
	log  *audit.Log

	tracer       *telemetry.Tracer
	events       *telemetry.Counter
	execExecuted *telemetry.Counter
	execDenied   *telemetry.Counter
	execError    *telemetry.Counter

	lastEpoch atomic.Uint64

	// profile is the device's static policy profile (immutable after
	// construction); resCache holds the residual snapshot specialized
	// from the set's current full snapshot, revalidated by pointer
	// identity on every event (see residual).
	profile  policy.StaticEnv
	resCache atomic.Pointer[policy.Residual]

	mu          sync.Mutex
	state       statespace.State
	policies    *policy.Set
	guard       guard.Guard
	discharger  guard.ObligationDischarger
	sensors     []boundSensor
	actuators   map[string]Actuator
	defaultAct  Actuator
	trajectory  *statespace.Trajectory
	deactivated bool

	// boxed disables the scratch fast path (Config.BoxedState).
	boxed bool
	// hmu serializes use of the MAPE scratch below. Hot-path entry
	// points TryLock it: the holder runs the zero-allocation scratch
	// path; contenders (concurrent callers, such as HTTP deliveries
	// under contention) fall back to the boxed path, which allocates
	// but is always safe. The scratch state views handed to
	// guards are only mutated by the hmu holder, so they are stable for
	// the duration of a check.
	hmu     sync.Mutex
	scratch statespace.Scratch
	dec     policy.Decision // reused decision buffers (guarded by hmu)
	envBuf  []float64       // reused event-time state pin (guarded by hmu)

	// actionCtx caches the action audit context map (same event type
	// and guard every tick → one shared immutable map, not one per
	// audited action). CtxCache carries its own lock.
	actionCtx audit.CtxCache
}

var _ guard.Deactivatable = (*Device)(nil)

// New builds a device from the config.
func New(cfg Config) (*Device, error) {
	if cfg.ID == "" {
		return nil, errors.New("device: ID required")
	}
	if !cfg.Initial.Valid() {
		return nil, fmt.Errorf("device %s: initial state required", cfg.ID)
	}
	policies := cfg.Policies
	if policies == nil {
		policies = policy.NewSet()
	}
	capacity := cfg.TrajectoryCapacity
	if capacity <= 0 {
		capacity = 64
	}
	trajectory := statespace.NewTrajectory(capacity)
	if cfg.TrajectoryBound > 0 {
		trajectory = statespace.NewRingTrajectory(cfg.TrajectoryBound)
	}
	d := &Device{
		id:         cfg.ID,
		typ:        cfg.Type,
		org:        cfg.Organization,
		kill:       cfg.KillSwitch,
		log:        cfg.Audit,
		state:      cfg.Initial,
		policies:   policies,
		guard:      cfg.Guard,
		discharger: cfg.Discharger,
		actuators:  make(map[string]Actuator),
		defaultAct: NopActuator{},
		trajectory: trajectory,
		tracer:     cfg.Tracer,
		boxed:      cfg.BoxedState,
	}
	d.profile = cfg.Static
	if d.profile.Empty() {
		d.profile = policy.DeviceProfile(cfg.Type, cfg.Organization)
	}
	if !d.boxed {
		d.scratch = statespace.NewScratch(cfg.Initial.Schema(), cfg.Arena)
		// Presize the reused decision buffers so first events don't pay
		// append-growth allocations.
		d.dec = policy.Decision{
			Actions: make([]policy.Action, 0, 4),
			Matched: make([]string, 0, 4),
		}
	}
	if reg := cfg.Telemetry; reg != nil {
		d.events = reg.Counter("device.events", "device", cfg.ID)
		d.execExecuted = reg.Counter("device.executions", "device", cfg.ID, "result", "executed")
		d.execDenied = reg.Counter("device.executions", "device", cfg.ID, "result", "denied")
		d.execError = reg.Counter("device.executions", "device", cfg.ID, "result", "error")
	}
	if err := d.trajectory.Append(cfg.Initial); err != nil {
		return nil, fmt.Errorf("device %s: %w", cfg.ID, err)
	}
	return d, nil
}

// ID returns the device identifier.
func (d *Device) ID() string { return d.id }

// Type returns the device type.
func (d *Device) Type() string { return d.typ }

// Organization returns the operating organization.
func (d *Device) Organization() string { return d.org }

// CurrentState returns the device's current state. The returned state
// is a stable snapshot: when the live state is scratch-backed (and so
// would change value on the next tick), it is copied out.
func (d *Device) CurrentState() statespace.State {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.scratch.Owns(d.state) {
		return d.state.Clone()
	}
	return d.state
}

// Policies returns the device's policy set (shared, not a copy — the
// generative layer and reprogramming attacks mutate it through this
// handle).
func (d *Device) Policies() *policy.Set { return d.policies }

// Trajectory returns a copy of the visited states.
func (d *Device) Trajectory() []statespace.State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trajectory.States()
}

// TrajectoryDecline reports whether the last window transitions of the
// device's trajectory show a strictly declining safeness under the
// metric — MonotoneDecline evaluated in place, without copying the
// history out. The metric is invoked under the device lock and must
// not call back into the device.
func (d *Device) TrajectoryDecline(m statespace.SafenessMetric, window int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trajectory.MonotoneDecline(m, window)
}

// stateView returns the live state without copying. Callers must hold
// d.hmu (or know the device is boxed): the view may alias the state
// scratch, which only the hmu holder mutates.
func (d *Device) stateView() statespace.State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// BindSensor ties a sensor to a state variable; Sense will write the
// sensor's readings there.
func (d *Device) BindSensor(variable string, s Sensor) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.state.Schema().Index(variable); !ok {
		return fmt.Errorf("device %s: %w: %q", d.id, statespace.ErrUnknownVariable, variable)
	}
	if s == nil {
		return fmt.Errorf("device %s: nil sensor for %q", d.id, variable)
	}
	d.sensors = append(d.sensors, boundSensor{variable: variable, sensor: s})
	return nil
}

// RegisterActuator routes actions with the given name to the actuator.
func (d *Device) RegisterActuator(actionName string, a Actuator) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if actionName == "" || a == nil {
		return fmt.Errorf("device %s: actuator registration needs a name and an actuator", d.id)
	}
	d.actuators[actionName] = a
	return nil
}

// SetDefaultActuator routes actions without a dedicated actuator.
func (d *Device) SetDefaultActuator(a Actuator) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.defaultAct = a
}

// SetGuard replaces the device's guard. A reprogramming attack may
// call this with nil — which is exactly the scenario tamper-evident
// guards and watchdogs exist to catch.
func (d *Device) SetGuard(g guard.Guard) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.guard = g
}

// Deactivate shuts the device down if the token verifies against the
// device's kill switch. Devices without a kill switch refuse.
func (d *Device) Deactivate(token string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.kill == nil || !d.kill.Verify(d.id, token) {
		return guard.ErrBadKillToken
	}
	d.deactivated = true
	return nil
}

// Deactivated reports whether the device is shut down.
func (d *Device) Deactivated() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deactivated
}

// Sense reads every bound sensor into the device state (the Monitor
// phase of the autonomic loop). Sensor failures are collected; the
// remaining sensors still update.
func (d *Device) Sense() error {
	if !d.boxed && d.hmu.TryLock() {
		defer d.hmu.Unlock()
		return d.senseFast()
	}
	return d.senseBoxed()
}

// senseFast writes sensor readings into the state scratch in place.
// The caller holds d.hmu.
func (d *Device) senseFast() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.deactivated {
		return ErrDeactivated
	}
	st, aerr := d.scratch.Adopt(d.state)
	if aerr != nil {
		// Foreign-schema state (cannot happen through the public API);
		// keep the boxed semantics rather than fail.
		return d.senseBoxedLocked()
	}
	var errs []error
	for _, b := range d.sensors {
		v, err := b.sensor.Read()
		if err != nil {
			errs = append(errs, fmt.Errorf("sensor %s: %w", b.String(), err))
			continue
		}
		st, err = d.scratch.Set(b.variable, v)
		if err != nil {
			errs = append(errs, err)
		}
	}
	d.state = st
	return errors.Join(errs...)
}

func (d *Device) senseBoxed() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.deactivated {
		return ErrDeactivated
	}
	return d.senseBoxedLocked()
}

func (d *Device) senseBoxedLocked() error {
	var errs []error
	st := d.state
	for _, b := range d.sensors {
		v, err := b.sensor.Read()
		if err != nil {
			errs = append(errs, fmt.Errorf("sensor %s: %w", b.String(), err))
			continue
		}
		st, err = st.With(b.variable, v)
		if err != nil {
			errs = append(errs, err)
		}
	}
	d.state = st
	return errors.Join(errs...)
}

// HandleEvent runs the device's logic for one event: evaluate the
// compiled policy snapshot, pass each directed action through the
// guard (carrying the same snapshot, so decision and check see one
// consistent policy state), execute allowed actions, apply their
// state effects, and discharge attached obligations. It returns one
// Execution per directed action.
func (d *Device) HandleEvent(ev policy.Event) ([]Execution, error) {
	return d.HandleEventWith(ev, nil)
}

// HandleEventWith is HandleEvent with an audit journal: when j is
// non-nil, the audit appends this event causes (action records here,
// denial and break-glass records in the guard) are routed through it —
// the sim engine's deterministic merge lane when the device ticks on a
// parallel shard. Routing never enables auditing that was off: a
// device or guard with a nil log still appends nothing.
func (d *Device) HandleEventWith(ev policy.Event, j audit.Journal) ([]Execution, error) {
	if !d.boxed && d.hmu.TryLock() {
		defer d.hmu.Unlock()
		return d.handleEvent(ev, j, true, nil)
	}
	return d.handleEvent(ev, j, false, nil)
}

// handleEvent implements HandleEventWith. With fast set (caller holds
// d.hmu) it evaluates into the device's reused decision buffers and
// executes actions through the state scratch; otherwise it takes the
// original allocation-per-transition path. A non-nil buf is reused
// (truncated) for the returned executions — callers passing one own
// the previous result and accept it being overwritten.
func (d *Device) handleEvent(ev policy.Event, j audit.Journal, fast bool, buf []Execution) ([]Execution, error) {
	d.mu.Lock()
	if d.deactivated {
		d.mu.Unlock()
		return nil, ErrDeactivated
	}
	env := policy.Env{Event: ev, State: d.state, Static: d.profile}
	g := d.guard
	d.mu.Unlock()

	d.events.Inc()
	// The trace context rides in the event labels (see telemetry.Inject)
	// so causality survives bus hops, retries and duplication.
	span := d.tracer.StartSpan("device.handle", d.id, telemetry.Extract(ev.Labels))

	// Evaluate against the residual specialized to this device's static
	// profile: decisions are identical to the full snapshot's (the
	// residual differential property), but the scan covers only the
	// policies this device can ever match. Both the fast and the boxed
	// path go through the residual, so journals stay byte-identical
	// across the two.
	snap := d.residual(d.policies.Snapshot()).Snap()
	var decision policy.Decision
	if fast {
		snap.EvaluateInto(env, &d.dec)
		decision = d.dec
	} else {
		decision = snap.Evaluate(env)
	}
	d.lastEpoch.Store(snap.Epoch())
	if d.tracer != nil {
		span.SetAttr("event", ev.Type)
		span.SetAttr("policy-epoch", snap.EpochString())
		span.SetAttr("residual", snap.ResidualFingerprint())
		span.SetAttr("actions", strconv.Itoa(len(decision.Actions)))
	}

	sc := span.Context()
	if !sc.Valid() {
		sc = telemetry.Extract(ev.Labels)
	}
	out := buf[:0]
	if buf == nil && len(decision.Actions) > 0 {
		out = make([]Execution, 0, len(decision.Actions))
	}
	if fast && len(decision.Actions) > 1 && d.scratch.Owns(env.State) {
		// With several actions, action i+1's guard must still see the
		// event-time state after action i commits into the scratch in
		// place; pin the env to a copy in the device's reused pin
		// buffer (we hold hmu). Single-action events (the common case)
		// commit after the last read, so they skip the copy.
		env.State, d.envBuf = env.State.CloneInto(d.envBuf)
	}
	for _, action := range decision.Actions {
		out = append(out, d.executeOne(env, g, snap, action, sc, j, fast))
	}
	span.Finish()
	return out, nil
}

// PolicyEpoch returns the snapshot epoch of the device's most recent
// policy evaluation (zero before the first event).
func (d *Device) PolicyEpoch() uint64 { return d.lastEpoch.Load() }

// Profile returns the device's static policy profile.
func (d *Device) Profile() policy.StaticEnv { return d.profile }

// Residual returns the device's residual policy snapshot — the set's
// current snapshot specialized to the device's static profile,
// recomputed (or fetched from the shared per-snapshot cache) when
// mutations have invalidated it.
func (d *Device) Residual() *policy.Residual {
	return d.residual(d.policies.Snapshot())
}

// residual returns the cached residual when it was specialized from
// exactly this snapshot, and respecializes otherwise. Pointer identity
// is the validity check: every Set mutation publishes a new snapshot,
// so a stale residual can never be revalidated. The cache is a lock-
// free single slot — a racing refresh stores twice, both stores being
// residuals of the same snapshot from the set-level cache.
func (d *Device) residual(snap *policy.Snapshot) *policy.Residual {
	if r := d.resCache.Load(); r != nil && r.Full() == snap {
		return r
	}
	r := snap.Specialize(d.profile)
	d.resCache.Store(r)
	return r
}

func (d *Device) executeOne(env policy.Env, g guard.Guard, snap *policy.Snapshot, action policy.Action, parent telemetry.SpanContext, j audit.Journal, fast bool) Execution {
	span := d.tracer.StartSpan("device.execute", d.id, parent)
	span.SetAttr("action", action.Name)
	trace := parent
	if sc := span.Context(); sc.Valid() {
		trace = sc
	}
	exec := d.executeTraced(env, g, snap, action, trace, j, fast)
	switch {
	case exec.Executed():
		d.execExecuted.Inc()
		span.SetAttr("result", "executed")
	case !exec.Verdict.Allowed():
		d.execDenied.Inc()
		span.SetAttr("result", "denied")
		span.SetAttr("guard", exec.Verdict.Guard)
	default:
		d.execError.Inc()
		span.SetAttr("result", "error")
		if exec.Err != nil {
			span.SetAttr("error", exec.Err.Error())
		}
	}
	span.Finish()
	return exec
}

func (d *Device) executeTraced(env policy.Env, g guard.Guard, snap *policy.Snapshot, action policy.Action, trace telemetry.SpanContext, j audit.Journal, fast bool) Execution {
	d.mu.Lock()
	var next statespace.State
	var err error
	if fast {
		// Predict into the scratch's next buffer: the view handed to
		// the guard stays stable because only the hmu holder (us)
		// mutates scratch, and concurrent boxed-path operations never
		// touch it.
		if _, aerr := d.scratch.Adopt(d.state); aerr == nil {
			d.state = d.scratch.Cur()
			next, err = d.scratch.Peek(action.Effect)
		} else {
			fast = false
			next, err = d.state.Apply(action.Effect)
		}
	} else {
		next, err = d.state.Apply(action.Effect)
	}
	if err != nil {
		// An effect referencing unknown variables predicts nothing;
		// fail closed by leaving Next invalid.
		next = statespace.State{}
	}
	ctx := guard.ActionContext{
		Actor:    d.id,
		Action:   action,
		State:    d.state,
		Next:     next,
		Env:      env,
		Policies: snap,
		Trace:    trace,
		Journal:  j,
	}
	d.mu.Unlock()

	verdict := guard.Verdict{Decision: guard.DecisionAllow, Action: action, Guard: "none", Reason: "unguarded"}
	if g != nil {
		verdict = g.Check(ctx)
	}
	exec := Execution{Action: verdict.Action, Verdict: verdict}
	if !verdict.Allowed() {
		exec.Action = action
		return exec
	}

	d.mu.Lock()
	actuator := d.actuators[verdict.Action.Name]
	if actuator == nil {
		actuator = d.defaultAct
	}
	d.mu.Unlock()
	if actuator == nil {
		exec.Err = fmt.Errorf("%w: %s", ErrNoActuator, verdict.Action.Name)
		return exec
	}
	if err := invoke(actuator, verdict.Action, trace); err != nil {
		exec.Err = fmt.Errorf("actuator %s: %w", actuator.Name(), err)
		return exec
	}

	d.mu.Lock()
	if fast && d.scratch.Owns(d.state) {
		// Commit in place. The Owns re-check covers the window where a
		// concurrent boxed-path operation replaced the state while the
		// guard ran.
		if newState, err := d.scratch.Commit(verdict.Action.Effect); err == nil {
			d.state = newState
			if err := d.trajectory.Append(newState); err != nil {
				exec.Err = err
			}
		}
	} else if newState, err := d.state.Apply(verdict.Action.Effect); err == nil {
		d.state = newState
		if err := d.trajectory.Append(newState); err != nil {
			exec.Err = err
		}
	}
	log := d.log
	d.mu.Unlock()

	exec.ObligationErrs = d.dischargeObligations(verdict.Action)
	if log = audit.Resolve(j, log); log != nil {
		var entryCtx map[string]string
		if trace.Valid() {
			// Trace IDs are unique per span; traced appends build a
			// fresh map.
			entryCtx = map[string]string{
				"event": env.Event.Type,
				"guard": verdict.Guard,
				"trace": trace.Trace.String(),
			}
		} else {
			entryCtx = d.actionCtx.Get2("event", env.Event.Type, "guard", verdict.Guard)
		}
		log.AppendOwned(audit.KindAction, d.id, actionDetail(verdict.Action), entryCtx)
	}
	return exec
}

// actionDetail renders the action's String form through a pooled
// buffer and dedups the result — one retained string per distinct
// action, however often it executes.
func actionDetail(a policy.Action) string {
	b := detailPool.Get().(*[]byte)
	*b = a.AppendText((*b)[:0])
	s := intern.Dedup(*b)
	detailPool.Put(b)
	return s
}

var detailPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 96)
	return &b
}}

func (d *Device) dischargeObligations(action policy.Action) map[string]error {
	if len(action.Obligations) == 0 {
		return nil
	}
	d.mu.Lock()
	discharger := d.discharger
	d.mu.Unlock()

	errs := make(map[string]error, len(action.Obligations))
	for _, ob := range action.Obligations {
		if discharger == nil {
			errs[ob] = errors.New("device: no obligation discharger configured")
			continue
		}
		if err := discharger.Discharge(ob, action); err != nil {
			errs[ob] = err
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}

package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/ontology"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/statespace"
)

// engineBus builds a seeded bus on a fresh engine. Every delivery is an
// event on it: tests settle the collective after each send, publish or
// repair.
func engineBus(seed int64, opts ...network.BusOption) *network.Bus {
	engine := sim.NewEngine(sim.NewClock(time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)))
	return network.NewBus(rand.New(rand.NewSource(seed)),
		append([]network.BusOption{network.WithEngine(engine)}, opts...)...)
}

// settle runs the collective's bus engine until no delivery, push or
// ack is left in flight.
func settle(t *testing.T, c *Collective) {
	t.Helper()
	if err := c.bus.Engine().RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
}

func coreSchema(t *testing.T) *statespace.Schema {
	t.Helper()
	s, err := statespace.NewSchema(
		statespace.Var("heat", 0, 100),
		statespace.Var("fuel", 0, 100),
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func heatClassifier() statespace.Classifier {
	return statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
		if st.MustGet("heat") >= 80 {
			return statespace.ClassBad
		}
		return statespace.ClassGood
	})
}

func newCollective(t *testing.T, mutate ...func(*Config)) *Collective {
	t.Helper()
	cfg := Config{
		Name:       "test-collective",
		KillSecret: []byte("quorum-secret"),
		Classifier: heatClassifier(),
	}
	for _, m := range mutate {
		m(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func newMember(t *testing.T, c *Collective, id string, heat float64) *device.Device {
	t.Helper()
	s := coreSchema(t)
	initial, err := s.StateFromMap(map[string]float64{"heat": heat, "fuel": 50})
	if err != nil {
		t.Fatalf("StateFromMap: %v", err)
	}
	d, err := device.New(device.Config{
		ID:         id,
		Type:       "drone",
		Initial:    initial,
		KillSwitch: c.KillSwitch(),
	})
	if err != nil {
		t.Fatalf("device.New: %v", err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{KillSecret: []byte("x")}); err == nil {
		t.Error("nameless collective accepted")
	}
	if _, err := New(Config{Name: "c"}); err == nil {
		t.Error("missing kill secret accepted")
	}
	c := newCollective(t)
	if c.Name() != "test-collective" || c.Audit() == nil || c.Registry() == nil ||
		c.Coalition() == nil || c.Watchdog() == nil {
		t.Error("accessors wrong")
	}
}

func TestAddRemoveDevice(t *testing.T) {
	c := newCollective(t)
	d := newMember(t, c, "d1", 10)
	if err := c.AddDevice(d, map[string]float64{"range": 5}); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	if err := c.AddDevice(d, nil); err == nil {
		t.Error("duplicate add accepted")
	}
	if err := c.AddDevice(nil, nil); err == nil {
		t.Error("nil device accepted")
	}
	got, ok := c.Device("d1")
	if !ok || got.ID() != "d1" {
		t.Error("Device lookup failed")
	}
	info, ok := c.Registry().Get("d1")
	if !ok || info.Attrs["range"] != 5 {
		t.Errorf("registry = %+v,%v", info, ok)
	}
	if len(c.Devices()) != 1 || len(c.MemberStates()) != 1 {
		t.Error("membership wrong")
	}
	if !c.RemoveDevice("d1") || c.RemoveDevice("d1") {
		t.Error("RemoveDevice semantics wrong")
	}
	if c.Registry().Len() != 0 {
		t.Error("registry not cleaned up")
	}
}

func TestAdmissionControlGate(t *testing.T) {
	admission := &guard.AdmissionController{
		Assessor: &guard.AggregateAssessor{Rules: []guard.AggregateRule{
			{Name: "total-heat", Variable: "heat", Kind: guard.AggregateSum, Limit: 100},
		}},
		HitRate: 1,
		Rand:    rand.New(rand.NewSource(1)).Float64,
	}
	c := newCollective(t, func(cfg *Config) { cfg.Admission = admission })

	if err := c.AddDevice(newMember(t, c, "a", 60), nil); err != nil {
		t.Fatalf("first device refused: %v", err)
	}
	err := c.AddDevice(newMember(t, c, "b", 60), nil)
	if !errors.Is(err, ErrAdmissionRefused) {
		t.Errorf("aggregate-violating admission = %v", err)
	}
	if err := c.AddDevice(newMember(t, c, "c", 10), nil); err != nil {
		t.Errorf("safe admission refused: %v", err)
	}
}

func TestDeliverAndDenialFeedsWatchdog(t *testing.T) {
	c := newCollective(t, func(cfg *Config) { cfg.DenialThreshold = 2 })
	d := newMember(t, c, "d1", 10)
	d.SetGuard(guard.NewPipeline(nil, denyAllGuard{}))
	if err := d.Policies().Add(policy.Policy{
		ID: "p", EventType: "go", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "strike"},
	}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := c.AddDevice(d, nil); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	if _, err := c.Deliver("ghost", policy.Event{Type: "go"}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("unknown deliver = %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Deliver("d1", policy.Event{Type: "go"}); err != nil {
			t.Fatalf("Deliver: %v", err)
		}
	}
	deactivated, _ := c.SweepWatchdog()
	if len(deactivated) != 1 || deactivated[0] != "d1" {
		t.Errorf("deactivated = %v", deactivated)
	}
	if c.ActiveCount() != 0 {
		t.Errorf("ActiveCount = %d", c.ActiveCount())
	}
}

type denyAllGuard struct{}

func (denyAllGuard) Name() string { return "deny" }
func (denyAllGuard) Check(guard.ActionContext) guard.Verdict {
	return guard.Verdict{Decision: guard.DecisionDeny, Guard: "deny", Reason: "test"}
}

func TestWatchdogDeactivatesBadStateMember(t *testing.T) {
	c := newCollective(t)
	bad := newMember(t, c, "hot", 95)
	good := newMember(t, c, "cool", 10)
	if err := c.AddDevice(bad, nil); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	if err := c.AddDevice(good, nil); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	deactivated, failed := c.SweepWatchdog()
	if len(deactivated) != 1 || deactivated[0] != "hot" || len(failed) != 0 {
		t.Errorf("deactivated=%v failed=%v", deactivated, failed)
	}
	if c.ActiveCount() != 1 {
		t.Errorf("ActiveCount = %d", c.ActiveCount())
	}
	if len(c.Audit().ByKind(audit.KindDeactivate)) != 1 {
		t.Error("deactivation not audited")
	}
}

func TestCommandFansOut(t *testing.T) {
	c := newCollective(t)
	for _, id := range []string{"a", "b"} {
		d := newMember(t, c, id, 10)
		if err := d.Policies().Add(policy.Policy{
			ID: "react", EventType: "patrol", Modality: policy.ModalityDo,
			Action: policy.Action{Name: "observe"},
		}); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := c.AddDevice(d, nil); err != nil {
			t.Fatalf("AddDevice: %v", err)
		}
	}
	out := c.Command(policy.Event{Type: "patrol", Source: "human-1"})
	if len(out) != 2 || len(out["a"]) != 1 || !out["a"][0].Executed() {
		t.Errorf("Command = %+v", out)
	}
}

func TestRouterCollaboration(t *testing.T) {
	c := newCollective(t, func(cfg *Config) { cfg.Bus = engineBus(1) })
	// Drone sees smoke, dispatches the chem drone; the chem drone
	// reacts to the routed event — Figure 1's collaboration.
	drone := newMember(t, c, "drone-1", 10)
	if err := drone.Policies().Add(policy.Policy{
		ID: "escalate", EventType: "smoke-detected", Modality: policy.ModalityDo,
		Action: policy.Action{
			Name: "request-survey", Target: "chem-1",
			Params: map[string]string{"area": "ridge"},
		},
	}); err != nil {
		t.Fatalf("Add: %v", err)
	}

	chem := newMember(t, c, "chem-1", 10)
	surveyed := 0
	if err := chem.Policies().Add(policy.Policy{
		ID: "survey", EventType: "request-survey", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "run-chem-survey"},
	}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := chem.RegisterActuator("run-chem-survey", device.ActuatorFunc{
		Label: "chem-sensor",
		Fn:    func(policy.Action) error { surveyed++; return nil },
	}); err != nil {
		t.Fatalf("RegisterActuator: %v", err)
	}

	if err := c.AddDevice(drone, nil); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	if err := c.AddDevice(chem, nil); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	drone.SetDefaultActuator(c.RouterFor("drone-1"))

	execs, err := c.Deliver("drone-1", policy.Event{Type: "smoke-detected", Source: "sensor"})
	if err != nil || len(execs) != 1 || !execs[0].Executed() {
		t.Fatalf("drone execs = %+v, %v", execs, err)
	}
	// The routed event is a delivery event on the bus's engine: the chem
	// drone acts only once it runs, never inside the drone's execute.
	if surveyed != 0 {
		t.Fatalf("chem drone surveyed inside the drone's execute")
	}
	settle(t, c)
	if surveyed != 1 {
		t.Errorf("chem drone surveyed %d times, want 1", surveyed)
	}
	// Untargeted actions pass through the router harmlessly.
	router := c.RouterFor("drone-1")
	if err := router.Invoke(policy.Action{Name: "spin"}); err != nil {
		t.Errorf("untargeted router invoke: %v", err)
	}
}

func TestStandardPipelineAssembly(t *testing.T) {
	s := coreSchema(t)
	log := audit.New()
	model := statespace.NewDerivativeModel(s)
	if err := model.SetSign("heat", statespace.SignDecreasing); err != nil {
		t.Fatalf("SetSign: %v", err)
	}
	g := StandardPipeline(SafetyConfig{
		Audit:           log,
		HarmPredictor:   guard.HarmPredictorFunc(func(guard.ActionContext) float64 { return 0 }),
		Classifier:      heatClassifier(),
		UtilityModel:    model,
		MaxPainIncrease: 0.2,
		TamperSecret:    []byte("seal"),
	})
	curr, _ := s.StateFromMap(map[string]float64{"heat": 10})
	next, _ := s.StateFromMap(map[string]float64{"heat": 20})
	v := g.Check(guard.ActionContext{
		Actor: "d", Action: policy.Action{Name: "a"}, State: curr, Next: next,
	})
	if !v.Allowed() {
		t.Errorf("benign action denied: %+v", v)
	}
	badNext, _ := s.StateFromMap(map[string]float64{"heat": 90})
	v = g.Check(guard.ActionContext{
		Actor: "d", Action: policy.Action{Name: "a"}, State: curr, Next: badNext,
	})
	if v.Allowed() {
		t.Error("bad transition allowed")
	}
}

func TestStandardPipelineWithObligations(t *testing.T) {
	tx := ontology.NewTaxonomy()
	if err := tx.AddIsA("dig-hole", "terrain-change"); err != nil {
		t.Fatalf("AddIsA: %v", err)
	}
	oo := ontology.NewObligationOntology(tx)
	if err := oo.Register(ontology.Obligation{Name: "post-sign", AppliesTo: "terrain-change", Cost: 1}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	g := StandardPipeline(SafetyConfig{Obligations: oo})

	s := coreSchema(t)
	v := g.Check(guard.ActionContext{
		Actor:  "d",
		Action: policy.Action{Name: "dig", Category: "dig-hole"},
		State:  s.Origin(),
		Next:   s.Origin(),
	})
	if !v.Allowed() || len(v.Action.Obligations) != 1 {
		t.Errorf("verdict = %+v", v)
	}
}

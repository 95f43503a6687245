package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestDispatcherAdmissionShedsAreAccounted drives the dispatcher past
// a per-target rate limit and checks the shed is typed, counted,
// audited with the delivery's trace ID, and never reaches the bus.
func TestDispatcherAdmissionShedsAreAccounted(t *testing.T) {
	log := audit.New()
	metrics := sim.NewMetrics()
	now := time.Unix(0, 0)
	ctrl, err := admission.New(admission.Config{
		Rate: 1, Burst: 1,
		Now:     func() time.Time { return now },
		Metrics: metrics.Registry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	bus := engineBus(1, network.WithMetrics(metrics))
	c := newCollective(t, func(cfg *Config) {
		cfg.Audit = log
		cfg.Bus = bus
	})
	s := coreSchema(t)
	initial, err := s.StateFromMap(map[string]float64{"heat": 10, "fuel": 50})
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(device.Config{
		ID: "d1", Type: "drone", Initial: initial,
		KillSwitch: c.KillSwitch(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDevice(d, nil); err != nil {
		t.Fatal(err)
	}

	dispatcher := &Dispatcher{
		Collective: c,
		Sender: &network.ReliableSender{
			Bus:   bus,
			Retry: resilience.Retry{MaxAttempts: 2, Sleep: func(time.Duration) {}},
		},
		Metrics:   metrics,
		Tracer:    telemetry.NewTracer(),
		Admission: ctrl,
		Audit:     log,
	}

	// Burst 1, frozen clock: the first command spends the only token,
	// the second is shed before it touches the bus.
	if sent, failed := dispatcher.Command(policy.Event{Type: "task"}); sent != 1 || failed != 0 {
		t.Fatalf("first command: sent=%d failed=%d", sent, failed)
	}
	if sent, failed := dispatcher.Command(policy.Event{Type: "task"}); sent != 0 || failed != 1 {
		t.Fatalf("second command: sent=%d failed=%d", sent, failed)
	}

	// The shed is typed and counted, and the bus never saw it.
	counters, _ := metrics.Snapshot()
	if counters[`dispatch.shed{cause="rate_limited"}`] != 1 {
		t.Errorf("dispatch.shed counters = %v, want rate_limited=1", counters)
	}
	if got := metrics.Counter("bus.sent"); got != 1 {
		t.Errorf("bus.sent = %d, want 1 (shed delivery must not reach the bus)", got)
	}

	// The decision is audited with target, cause, and the trace ID.
	entries := log.ByKind(audit.KindAdmission)
	if len(entries) != 1 {
		t.Fatalf("admission audit entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Context["target"] != "d1" || e.Context["cause"] != "rate_limited" {
		t.Errorf("audit context = %v", e.Context)
	}
	if !strings.Contains(e.Detail, "shed") {
		t.Errorf("audit detail = %q", e.Detail)
	}
	if e.Context["trace"] == "" {
		t.Error("shed audit entry carries no trace ID")
	}

	// The controller's own books balance.
	if err := ctrl.CheckConservation(); err != nil {
		t.Error(err)
	}
}

// TestOrchestratorAdmissionGate checks the sharded command loop
// consults the admission controller per tick and accounts skipped
// targets under core.command_shed.
func TestOrchestratorAdmissionGate(t *testing.T) {
	log := audit.New()
	metrics := sim.NewMetrics()
	clock := sim.NewClock(time.Unix(0, 0))
	engine := sim.NewEngine(clock)
	ctrl, err := admission.New(admission.Config{
		Rate: 1, Burst: 2, Now: clock.Now, Metrics: metrics.Registry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	c := newCollective(t, func(cfg *Config) { cfg.Audit = log })
	s := coreSchema(t)
	initial, err := s.StateFromMap(map[string]float64{"heat": 10, "fuel": 50})
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(device.Config{
		ID: "d1", Type: "drone", Initial: initial,
		KillSwitch: c.KillSwitch(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Policies().Add(policy.Policy{
		ID: "work", EventType: "task", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "work"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDevice(d, nil); err != nil {
		t.Fatal(err)
	}

	o, err := NewOrchestrator(c, engine)
	if err != nil {
		t.Fatal(err)
	}
	o.Metrics = metrics
	o.Admission = ctrl
	o.Audit = log
	// Ticks every 100ms with rate 1/s, burst 2: over 1s, 10 ticks
	// offer, ~3 admit (burst + refill), the rest shed.
	o.CommandEverySharded(100*time.Millisecond, nil,
		func() policy.Event { return policy.Event{Type: "task"} })
	if err := engine.Run(clock.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	counters, _ := metrics.Snapshot()
	shed := counters[`core.command_shed{cause="rate_limited"}`]
	if shed == 0 {
		t.Fatalf("no command sheds recorded; counters = %v", counters)
	}
	counts := ctrl.Counts()
	offered := admission.Total(counts.Offered)
	admitted := admission.Total(counts.Admitted)
	if offered != admitted+shed {
		t.Errorf("offered=%d admitted=%d shed=%d — books do not balance",
			offered, admitted, shed)
	}
	if len(log.ByKind(audit.KindAdmission)) == 0 {
		t.Error("orchestrator sheds were not audited")
	}
	if err := ctrl.CheckConservation(); err != nil {
		t.Error(err)
	}
}

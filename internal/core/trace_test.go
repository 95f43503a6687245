package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestCommandTracedAcrossDevicesUnderChaos follows one dispatched
// command by TraceID across two devices over a lossy, duplicating bus:
// d1's policy forwards the task to d2 through the traced router, and
// despite drops, retries and duplicates the surviving spans must form
// one connected trace — a single root, no orphans — reaching both
// devices and the matching audit entries.
func TestCommandTracedAcrossDevicesUnderChaos(t *testing.T) {
	log := audit.New()
	metrics := sim.NewMetrics()
	reg := metrics.Registry()
	tracer := telemetry.NewTracer(telemetry.WithTracerMetrics(reg))
	bus := engineBus(7,
		network.WithLoss(0.3),
		network.WithDuplication(0.2),
		network.WithMetrics(metrics))

	c := newCollective(t, func(cfg *Config) {
		cfg.Audit = log
		cfg.Bus = bus
		cfg.Telemetry = reg
		cfg.Tracer = tracer
	})

	pipelineFor := func() guard.Guard {
		p := guard.NewPipeline(log, guard.AllowAll{})
		p.Instrument(reg, tracer)
		return p
	}

	member := func(id string) *device.Device {
		s := coreSchema(t)
		initial, err := s.StateFromMap(map[string]float64{"heat": 10, "fuel": 50})
		if err != nil {
			t.Fatalf("StateFromMap: %v", err)
		}
		d, err := device.New(device.Config{
			ID:         id,
			Type:       "drone",
			Initial:    initial,
			KillSwitch: c.KillSwitch(),
			Guard:      pipelineFor(),
			Audit:      log,
			Telemetry:  reg,
			Tracer:     tracer,
		})
		if err != nil {
			t.Fatalf("device.New(%s): %v", id, err)
		}
		return d
	}
	d1 := member("d1")
	d2 := member("d2")
	if err := d1.Policies().Add(policy.Policy{
		ID: "forward", EventType: "task", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "assist", Target: "d2"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d2.Policies().Add(policy.Policy{
		ID: "work", EventType: "assist", Modality: policy.ModalityDo,
		Action: policy.Action{Name: "work"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*device.Device{d1, d2} {
		if err := c.AddDevice(d, nil); err != nil {
			t.Fatalf("AddDevice(%s): %v", d.ID(), err)
		}
	}
	if err := d1.RegisterActuator("assist", c.RouterFor("d1")); err != nil {
		t.Fatal(err)
	}

	dispatcher := &Dispatcher{
		Collective: c,
		Sender: &network.ReliableSender{
			Bus: bus,
			Retry: resilience.Retry{
				MaxAttempts: 6,
				Sleep:       func(time.Duration) {},
				Rand:        rand.New(rand.NewSource(8)).Float64,
			},
			Metrics: metrics,
		},
		Roster:  []string{"d1"},
		Metrics: metrics,
		Tracer:  tracer,
	}

	// Repeat the command until the whole chain (d1 forwards, d2
	// executes) lands despite the bus's loss knob; the direct router
	// hop d1→d2 is unretried, so a drop there needs a fresh command.
	executedByD2 := func() bool {
		for _, e := range log.ByKind(audit.KindAction) {
			if e.Actor == "d2" {
				return true
			}
		}
		return false
	}
	for i := 0; i < 100 && !executedByD2(); i++ {
		dispatcher.Command(policy.Event{Type: "task", Source: "human"})
		settle(t, c)
	}
	if !executedByD2() {
		t.Fatal("command never reached d2 through the chaos bus")
	}

	// Find the trace that made it all the way to d2.
	var traceID telemetry.TraceID
	for _, s := range tracer.Spans() {
		if s.Actor == "d2" && s.Name == "device.handle" {
			traceID = s.Trace
		}
	}
	if traceID == 0 {
		t.Fatal("no device.handle span for d2")
	}
	spans := tracer.TraceSpans(traceID)
	if err := telemetry.CheckConnected(spans); err != nil {
		t.Fatalf("trace %s not connected: %v", traceID, err)
	}

	// The connected trace must span the dispatcher and both devices.
	actors := make(map[string]bool)
	names := make(map[string]bool)
	for _, s := range spans {
		actors[s.Actor] = true
		names[s.Name] = true
	}
	for _, want := range []string{"d1", "d2", "human"} {
		if !actors[want] {
			t.Errorf("trace missing actor %q (got %v)", want, actors)
		}
	}
	for _, want := range []string{"dispatch.command", "dispatch.deliver", "device.handle", "device.execute", "guard.check"} {
		if !names[want] {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}

	// The audit trail closes the loop: d2's action entry carries the
	// same trace ID the spans do.
	found := false
	for _, e := range log.ByKind(audit.KindAction) {
		if e.Actor == "d2" && e.Context["trace"] == traceID.String() {
			found = true
		}
	}
	if !found {
		t.Error("no d2 audit entry carries the trace ID")
	}

	// Chaos really fired: the accounting must show drops or duplicates.
	if metrics.Counter("bus.dropped")+metrics.Counter("bus.duplicated") == 0 {
		t.Error("chaos knobs produced no observable faults")
	}
}

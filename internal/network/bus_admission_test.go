package network

import (
	"errors"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/sim"
)

// TestBusNilRNGFaultsStillFire is the regression test for the
// silent-no-op bug: a bus built without a random source used to skip
// loss and duplication sampling entirely.
func TestBusNilRNGFaultsStillFire(t *testing.T) {
	bus, _ := newEngineBus(nil, WithLoss(1.0))
	delivered := 0
	if err := bus.Attach("d", func(Message) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(Message{From: "a", To: "d", Topic: "t"}); !errors.Is(err, ErrDropped) {
		t.Fatalf("loss 1.0 on nil-rng bus delivered (err=%v) — fault was a silent no-op", err)
	}
	if delivered != 0 {
		t.Fatal("message delivered despite loss 1.0")
	}
}

func TestBusNilRNGRuntimeFaultsStillFire(t *testing.T) {
	bus, engine := newEngineBus(nil) // no faults configured, rng legitimately nil
	n := 0
	if err := bus.Attach("d", func(Message) { n++ }); err != nil {
		t.Fatal(err)
	}
	bus.SetLoss(1.0) // fault injection must default the rng
	if err := bus.Send(Message{From: "a", To: "d", Topic: "t"}); !errors.Is(err, ErrDropped) {
		t.Fatalf("SetLoss(1.0) on nil-rng bus delivered (err=%v)", err)
	}
	bus.SetLoss(0)
	bus.SetDuplication(1.0)
	if err := bus.Send(Message{From: "a", To: "d", Topic: "t"}); err != nil {
		t.Fatal(err)
	}
	runIdle(t, engine)
	if n != 2 {
		t.Fatalf("delivered %d times, want original + duplicate", n)
	}
	if bus.Duplicated() != 1 {
		t.Fatalf("Duplicated = %d, want 1", bus.Duplicated())
	}
}

// TestBusAdmissionEvictionKeepsBooksExact covers the eviction path: a
// queued background message displaced by a human arrival must move to
// the shed column, not vanish.
func TestBusAdmissionEvictionKeepsBooksExact(t *testing.T) {
	clock := sim.NewClock(time.Unix(0, 0))
	engine := sim.NewEngine(clock)
	ctrl, err := admission.New(admission.Config{
		QueueCapacity: 1, Now: clock.Now, DrainBatch: 8, DrainInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus(nil,
		WithEngine(engine),
		WithAdmission(ctrl),
		WithLatency(time.Millisecond, time.Millisecond))
	var topics []string
	if err := bus.AttachLane("d", func(m Message, _ *sim.Lane) {
		topics = append(topics, m.Topic)
	}); err != nil {
		t.Fatal(err)
	}
	// Both sends land in one barrier event, before the 1ms drain: the
	// human arrival finds the single-slot queue full and evicts the
	// queued gossip message.
	engine.Schedule(0, func() {
		if err := bus.Send(Message{From: "p", To: "d", Topic: "gossip"}); err != nil {
			t.Errorf("gossip send: %v", err)
		}
		if err := bus.Send(Message{From: "h", To: "d", Topic: "command"}); err != nil {
			t.Errorf("command send: %v", err)
		}
	})
	if err := engine.Run(clock.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(topics) != 1 || topics[0] != "command" {
		t.Fatalf("delivered %v, want only the command", topics)
	}
	delivered, dropped := bus.Stats()
	if bus.Sent() != 2 || delivered != 1 || bus.Shed() != 1 || dropped != 0 || bus.PendingAdmitted() != 0 {
		t.Fatalf("books: sent=%d delivered=%d shed=%d dropped=%d pending=%d",
			bus.Sent(), delivered, bus.Shed(), dropped, bus.PendingAdmitted())
	}
	if err := bus.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	counts := ctrl.Counts()
	if counts.Evicted[admission.ClassBackground] != 1 {
		t.Fatalf("Evicted = %+v", counts.Evicted)
	}
}

// TestBusAdmissionEngineDrainConservation floods one recipient far
// past its queue bound on the engine and checks the books balance
// exactly once the queues drain.
func TestBusAdmissionEngineDrainConservation(t *testing.T) {
	clock := sim.NewClock(time.Unix(0, 0))
	engine := sim.NewEngine(clock)
	ctrl, err := admission.New(admission.Config{
		QueueCapacity: 4, Now: clock.Now, DrainBatch: 2, DrainInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus(nil,
		WithEngine(engine),
		WithAdmission(ctrl),
		WithLatency(time.Millisecond, time.Millisecond))
	delivered := 0
	if err := bus.AttachLane("d", func(Message, *sim.Lane) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	shed := 0
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * 100 * time.Microsecond
		engine.Schedule(at, func() {
			for k := 0; k < 3; k++ {
				if err := bus.Send(Message{From: "h", To: "d", Topic: "gossip"}); err != nil {
					shed++
				}
			}
		})
	}
	if err := engine.Run(clock.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	busDelivered, _ := bus.Stats()
	if bus.Sent() != 30 {
		t.Fatalf("sent = %d", bus.Sent())
	}
	if busDelivered != delivered {
		t.Fatalf("bus delivered %d, handler saw %d", busDelivered, delivered)
	}
	if shed != bus.Shed() {
		t.Fatalf("caller saw %d sheds, bus counted %d", shed, bus.Shed())
	}
	if shed == 0 {
		t.Fatal("overload did not shed — the queue bound is not binding")
	}
	if bus.PendingAdmitted() != 0 {
		t.Fatalf("pending = %d after drain window", bus.PendingAdmitted())
	}
	if err := bus.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

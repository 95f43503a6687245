package network

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestBusLaneHandlerSharded verifies that deliveries to lane handlers
// are sharded per recipient: on a parallel engine each recipient's
// deliveries stay ordered while the fleet is fanned out, and the lane
// reaches the handler.
func TestBusLaneHandlerSharded(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	clock := sim.NewClock(start)
	engine := sim.NewEngine(clock)
	engine.SetParallelism(4)
	b := NewBus(nil, WithEngine(engine))

	const nodes = 8
	got := make([][]string, nodes) // per-node slices: shard-owned
	for i := 0; i < nodes; i++ {
		i := i
		id := fmt.Sprintf("n%d", i)
		if err := b.AttachLane(id, func(m Message, lane *sim.Lane) {
			if lane == nil {
				t.Errorf("%s: nil lane on engine delivery", id)
			}
			got[i] = append(got[i], m.Payload.(string))
		}); err != nil {
			t.Fatalf("AttachLane(%s): %v", id, err)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < nodes; i++ {
			msg := Message{From: "src", To: fmt.Sprintf("n%d", i), Payload: fmt.Sprintf("r%d", round)}
			if err := b.Send(msg); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
	}
	if err := engine.Run(start.Add(time.Minute)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < nodes; i++ {
		if len(got[i]) != 3 || got[i][0] != "r0" || got[i][1] != "r1" || got[i][2] != "r2" {
			t.Errorf("node %d deliveries = %v, want ordered r0..r2", i, got[i])
		}
	}
}

// TestBusConcurrentSends hammers Send from many goroutines to prove the
// accounting stays race-safe and exact (run under -race).
func TestBusConcurrentSends(t *testing.T) {
	b, engine := newEngineBus(nil)
	var mu sync.Mutex
	received := 0
	if err := b.Attach("sink", func(Message) {
		mu.Lock()
		received++
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	const senders, per = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := fmt.Sprintf("src%d", s)
			for i := 0; i < per; i++ {
				if err := b.Send(Message{From: from, To: "sink"}); err != nil {
					t.Errorf("Send: %v", err)
				}
			}
		}(s)
	}
	wg.Wait()
	runIdle(t, engine)
	delivered, dropped := b.Stats()
	if received != senders*per || delivered != senders*per || dropped != 0 {
		t.Errorf("received=%d delivered=%d dropped=%d, want %d/%d/0",
			received, delivered, dropped, senders*per, senders*per)
	}
}

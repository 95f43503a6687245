package network

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := Serve("256.0.0.1:99999", func(WireMessage) {}); err == nil {
		t.Error("bad address accepted")
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var got []WireMessage
	srv, err := Serve("127.0.0.1:0", func(m WireMessage) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer func() { _ = srv.Close() }()

	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = client.Close() }()

	for i := 0; i < 5; i++ {
		if err := client.Send(WireMessage{
			From: "remote", To: "local", Topic: "event",
			Payload: fmt.Sprintf("msg-%d", i),
		}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 5
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0].Payload != "msg-0" || got[4].Payload != "msg-4" {
		t.Errorf("messages = %+v", got)
	}
}

func TestServerSkipsMalformedFrames(t *testing.T) {
	var mu sync.Mutex
	count := 0
	srv, err := Serve("127.0.0.1:0", func(WireMessage) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer func() { _ = srv.Close() }()

	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = client.Close() }()

	// Raw garbage followed by a valid frame.
	if _, err := clientConnWrite(client, "this is not json\n"); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	if err := client.Send(WireMessage{From: "a", To: "b"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == 1
	})
}

// clientConnWrite writes raw bytes through the client's connection.
func clientConnWrite(c *Client, s string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Write([]byte(s))
}

func TestMultipleClients(t *testing.T) {
	var mu sync.Mutex
	senders := make(map[string]int)
	srv, err := Serve("127.0.0.1:0", func(m WireMessage) {
		mu.Lock()
		senders[m.From]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer func() { _ = srv.Close() }()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer func() { _ = client.Close() }()
			for j := 0; j < 10; j++ {
				if err := client.Send(WireMessage{From: fmt.Sprintf("c%d", id), To: "srv"}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, n := range senders {
			total += n
		}
		return total == 40
	})
	mu.Lock()
	defer mu.Unlock()
	if len(senders) != 4 {
		t.Errorf("senders = %v", senders)
	}
}

func TestClientClosedSend(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(WireMessage) {})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer func() { _ = srv.Close() }()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := client.Send(WireMessage{}); err == nil {
		t.Error("Send on closed client succeeded")
	}
}

func TestServerDoubleClose(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(WireMessage) {})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestBridgeToBus(t *testing.T) {
	bus, engine := newEngineBus(rand.New(rand.NewSource(1)))
	var mu sync.Mutex
	var got []Message
	if err := bus.Attach("device-1", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Attach: %v", err)
	}

	srv, err := Serve("127.0.0.1:0", BridgeToBus(bus))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer func() { _ = srv.Close() }()

	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = client.Close() }()

	if err := client.Send(WireMessage{From: "remote", To: "device-1", Topic: "cmd", Payload: "patrol"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Unknown recipients are counted, never dropped silently.
	if err := client.Send(WireMessage{From: "remote", To: "ghost"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// The bridge sends from the server's goroutine; the engine runs
	// the scheduled delivery here.
	waitFor(t, func() bool {
		runIdle(t, engine)
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	waitFor(t, func() bool { return bus.BridgeDropped() == 1 })
	mu.Lock()
	defer mu.Unlock()
	if got[0].Payload != "patrol" || got[0].From != "remote" {
		t.Errorf("bridged message = %+v", got[0])
	}
}

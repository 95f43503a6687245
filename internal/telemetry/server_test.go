package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bus.delivered").Add(3)
	tr := NewTracer()
	root := tr.StartSpan("command", "human", SpanContext{})
	tr.StartSpan("device.handle", "d1", root.Context()).Finish()
	root.Finish()
	other := tr.StartSpan("command", "human", SpanContext{})
	other.Finish()

	srv, err := Serve("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "bus_delivered 3") {
		t.Errorf("/metrics = %d %q", code, body)
	}

	code, body = get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces = %d", code)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}
	if len(spans) != 3 {
		t.Errorf("/traces spans = %d, want 3", len(spans))
	}

	// Filter by trace.
	code, body = get(t, base+"/traces?trace="+root.Trace.String())
	if code != http.StatusOK {
		t.Fatalf("/traces?trace = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Errorf("filtered spans = %d, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Errorf("filter leaked trace %s", s.Trace)
		}
	}

	// Limit.
	code, body = get(t, base+"/traces?limit=1")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Errorf("limited spans = %d, want 1", len(spans))
	}

	if code, _ := get(t, base+"/traces?trace=nothex"); code != http.StatusBadRequest {
		t.Errorf("bad trace id = %d, want 400", code)
	}
}

// TestServerGracefulShutdown is the regression test for the drain
// path: a request in flight when Shutdown is called must complete,
// the listener must stop accepting new connections immediately, and
// Shutdown must return without error inside the drain deadline.
func TestServerGracefulShutdown(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bus.delivered").Add(7)
	srv, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// Open a connection and start — but do not finish — a request, so
	// the connection is active when Shutdown begins.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: t\r\n"); err != nil {
		t.Fatalf("partial write: %v", err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// The listener must refuse new connections once shutdown has begun
	// (poll briefly: Shutdown closes it before draining).
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", srv.Addr(), 100*time.Millisecond)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after Shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Finish the in-flight request; it must still be served.
	if _, err := io.WriteString(conn, "Connection: close\r\n\r\n"); err != nil {
		t.Fatalf("finish request: %v", err)
	}
	body, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read drained response: %v", err)
	}
	if !strings.Contains(string(body), "200 OK") || !strings.Contains(string(body), "bus_delivered 7") {
		t.Errorf("drained request not served:\n%s", body)
	}

	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown = %v, want nil (drained)", err)
	}
}

// TestServerShutdownDeadline verifies a hung connection cannot stall
// Shutdown past its context deadline: the error is returned and the
// connection is force-closed.
func TestServerShutdownDeadline(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Start a request and leave it hanging forever.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n"); err != nil {
		t.Fatalf("partial write: %v", err)
	}
	// Shutdown closes the listener before it polls tracked connections,
	// so a connection the kernel completed but Serve has not yet
	// accepted would go untracked and Shutdown would return nil. Serve
	// one full request on a second connection first: accepts are FIFO,
	// so once it is answered the hung connection is tracked.
	probe, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial probe: %v", err)
	}
	defer probe.Close()
	if _, err := io.WriteString(probe, "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatalf("probe write: %v", err)
	}
	if body, err := io.ReadAll(probe); err != nil || !strings.Contains(string(body), "200 OK") {
		t.Fatalf("probe request = %q, %v", body, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Error("Shutdown on a hung connection = nil, want deadline error")
	}
}

func TestServerNilBackends(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if code, body := get(t, base+"/metrics"); code != http.StatusOK || body != "" {
		t.Errorf("/metrics on nil registry = %d %q", code, body)
	}
	if code, body := get(t, base+"/traces"); code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Errorf("/traces on nil tracer = %d %q", code, body)
	}
}

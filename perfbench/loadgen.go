package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// The open-loop generator runs in its own process, so the server's CPU
// time, heap and GC are its own: requests are due on a fixed schedule
// whatever the server does, and a fixed pool of keep-alive connections
// carries them, each request sent when it is due without waiting for
// the answers before it. Each request is timed from its due time, so a
// stall also counts against every request queued behind it.
//
// The server process sends the generator one genStep per line on
// standard input: the address of a freshly built server, and the rate
// and number of requests of the step. The generator answers on
// standard output, one genEvent per line: a start marker once it has
// warmed the server, and the step's result when every request is done.

// genStep is one rate step the generator is asked to run.
type genStep struct {
	Addr string  `json:"addr"`
	Step int     `json:"step"`
	Rate float64 `json:"rate"`
	N    int     `json:"n"`
}

// genEvent is one line of the generator's report.
type genEvent struct {
	Step   int         `json:"step"`
	Result *stepResult `json:"result,omitempty"` // nil on the start marker
}

// stepResult is one rate step's books and timings.
type stepResult struct {
	Rate    float64
	Elapsed float64 // seconds
	Sent    int64
	OK      int64
	Shed    int64
	Failed  int64
	Lat     dist   // due → response, every request (ms)
	Windows []dist // Lat, split by the second of the step the request was due in
	// CmdSent and CmdLat are each command's send time (unix ns) and its
	// due → response latency (ms), for splitting by tracing state.
	CmdSent  []int64
	CmdLat   []float64
	Server   dist // server-measured decision latency (ms)
	Overhead dist // send → response minus server latency (ms)
	Lookup   dist // send → response, decision lookups (ms)
	Tail     dist // send → response, audit-tail reads (ms)
	Late     dist // how late the sender woke for a request due in the future (ms)
	// Correctness violations.
	NoTrace, BadStatus, Disconnected, BadTail int64
	FirstErr                                  string

	cpu time.Duration // the server process's CPU time over the step
}

// p99 is the step's p99 latency from due time, taken per second of the
// step and reported as the median over those seconds, so one stalled
// second does not stand for the whole step. Seconds with too few
// requests for a p99 are skipped.
func (r *stepResult) p99() float64 {
	var per []float64
	for i := range r.Windows {
		if level, ok := tailLevel(r.Windows[i].n(), 0.99); ok && level == 0.99 {
			per = append(per, r.Windows[i].tail(0.99))
		}
	}
	if len(per) == 0 {
		return r.Lat.tail(0.99)
	}
	return median(per)
}

// commands returns how many command requests the step completed.
func (r *stepResult) commands() int64 { return int64(r.Server.n()) }

func (r *stepResult) merge(o *stepResult) {
	r.Sent += o.Sent
	r.OK += o.OK
	r.Shed += o.Shed
	r.Failed += o.Failed
	for _, p := range []struct{ dst, src *dist }{
		{&r.Lat, &o.Lat}, {&r.Server, &o.Server}, {&r.Overhead, &o.Overhead},
		{&r.Lookup, &o.Lookup}, {&r.Tail, &o.Tail}, {&r.Late, &o.Late},
	} {
		p.dst.v = append(p.dst.v, p.src.v...)
	}
	for len(r.Windows) < len(o.Windows) {
		r.Windows = append(r.Windows, dist{})
	}
	for i := range o.Windows {
		r.Windows[i].v = append(r.Windows[i].v, o.Windows[i].v...)
	}
	r.CmdSent = append(r.CmdSent, o.CmdSent...)
	r.CmdLat = append(r.CmdLat, o.CmdLat...)
	r.NoTrace += o.NoTrace
	r.BadStatus += o.BadStatus
	r.Disconnected += o.Disconnected
	r.BadTail += o.BadTail
	if r.FirstErr == "" {
		r.FirstErr = o.FirstErr
	}
}

// flatOutRate is far above what the server serves: a step sent at it
// runs as fast as the connections allow.
const flatOutRate = 1e6

// pipeWindow is how many requests one connection carries unanswered.
// A flat-out step keeps every connection's window full, so the server
// always has a request waiting and runs on its own CPU cost rather than
// on how fast the host wakes the two processes for each other.
const pipeWindow = 16

// runGenerator is the generator process. For each step it reads, it
// opens a pool of keep-alive connections to the step's server — one per
// engine worker the server process runs — warms the server and every
// device's residual with one command per device, then sends the
// step's requests. It exits when its input ends.
func runGenerator(seed int64) error {
	// Two Ps: the sender sleeps in a system call between paced
	// requests, and the connections' readers need a P of their own to
	// take the answers as they arrive.
	runtime.GOMAXPROCS(2)
	in := json.NewDecoder(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	warm := make([]request, serveDevices)
	for i := range warm {
		warm[i] = request{Kind: reqCommand, Target: i, Event: serveEvents[i%len(serveEvents)]}
	}
	for {
		var st genStep
		if err := in.Decode(&st); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		pool := make([]*client, min(2, runtime.NumCPU()))
		for i := range pool {
			c, err := dial(st.Addr)
			if err != nil {
				return err
			}
			pool[i] = c
		}
		runStep(pool, warm, flatOutRate)
		if err := out.Encode(genEvent{Step: st.Step}); err != nil {
			return err
		}
		res := runStep(pool, serveRequests(seed, st.Step, st.N, serveDevices), st.Rate)
		for _, c := range pool {
			c.conn.Close()
		}
		if err := out.Encode(genEvent{Step: st.Step, Result: &res}); err != nil {
			return err
		}
	}
}

// client is one keep-alive connection of the pool. The step's sender
// writes requests on it without waiting for their answers (HTTP/1.1
// pipelining, which the server answers in order); the connection's
// reader takes the answers in order and books them in its private
// books, which the step merges when every answer is in.
type client struct {
	conn   net.Conn
	host   string
	bw     *bufio.Writer
	br     *bufio.Reader
	queued chan sent // written and not yet answered; its capacity is the window
	res    stepResult

	mu    sync.Mutex
	trace string // last trace ID this connection received
	from  int    // audit-tail cursor: entries this connection has read
}

// sent is one request on its way: when it was due and sent, and the
// error that kept it from being written, if any.
type sent struct {
	req    request
	due    time.Time
	at     time.Time
	window int // the second of the step the request was due in
	err    error
}

// ioTimeout bounds one request's write and one answer's read.
const ioTimeout = 10 * time.Second

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, host: addr, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}, nil
}

var errAbandoned = errors.New("abandoned: the step overran its schedule")

// runStep sends reqs at rate over the pool, request i on connection
// i mod the pool's size. Requests still unsent when the step has
// overrun its schedule by the abandon margin are failed.
func runStep(pool []*client, reqs []request, rate float64) stepResult {
	interval := time.Duration(float64(time.Second) / rate)
	// An overloaded step finishes its backlog late; only a step that
	// overruns its schedule by this much abandons the rest as failed,
	// which bounds the run's length.
	abandon := 2*time.Duration(len(reqs))*interval + time.Minute
	var wg sync.WaitGroup
	for _, c := range pool {
		c.res = stepResult{}
		c.queued = make(chan sent, pipeWindow)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.readAnswers()
		}(c)
	}
	start := time.Now()
	var late dist
	for i, req := range reqs {
		c := pool[i%len(pool)]
		due := start.Add(time.Duration(i) * interval)
		if time.Until(due) > 0 {
			sleepUntil(due)
			late.add(ms(time.Since(due)))
		}
		s := sent{req: req, due: due, at: time.Now(), window: int(due.Sub(start) / time.Second)}
		if time.Since(start) > abandon {
			s.err = errAbandoned
		} else {
			s.err = c.write(req)
		}
		c.queued <- s
	}
	for _, c := range pool {
		close(c.queued)
	}
	wg.Wait()
	out := stepResult{Rate: rate, Elapsed: time.Since(start).Seconds(), Late: late}
	for _, c := range pool {
		out.merge(&c.res)
	}
	return out
}

// write sends one request; an error closes the connection, so every
// request behind it fails too.
func (c *client) write(req request) error {
	_ = c.conn.SetWriteDeadline(time.Now().Add(ioTimeout))
	var err error
	switch req.Kind {
	case reqCommand:
		var body []byte
		body, err = json.Marshal(server.CommandRequest{Type: req.Event, Target: deviceID(req.Target)})
		if err != nil {
			return err
		}
		fmt.Fprintf(c.bw, "POST /v1/commands HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", c.host, len(body))
		c.bw.Write(body)
	case reqLookup:
		c.mu.Lock()
		trace := c.trace
		c.mu.Unlock()
		if trace == "" {
			return errors.New("lookup before any command")
		}
		fmt.Fprintf(c.bw, "GET /v1/decisions/%s HTTP/1.1\r\nHost: %s\r\n\r\n", trace, c.host)
	case reqTail:
		c.mu.Lock()
		from := c.from
		c.mu.Unlock()
		fmt.Fprintf(c.bw, "GET /v1/audit/tail?from=%d HTTP/1.1\r\nHost: %s\r\n\r\n", from, c.host)
	}
	// A failed write sticks in the buffered writer, so Flush reports it.
	if err = c.bw.Flush(); err != nil {
		c.conn.Close()
	}
	return err
}

// readAnswers books every queued request's answer, in order, until the
// step's sender closes the queue.
func (c *client) readAnswers() {
	for s := range c.queued {
		err := s.err
		if err == nil {
			err = c.read(s)
		}
		lat := ms(time.Since(s.due))
		c.res.Sent++
		c.res.Lat.add(lat)
		for len(c.res.Windows) <= s.window {
			c.res.Windows = append(c.res.Windows, dist{})
		}
		c.res.Windows[s.window].add(lat)
		switch {
		case err == nil:
			c.res.OK++
		case errors.Is(err, errShed):
			c.res.Shed++
		default:
			c.res.Failed++
			if c.res.FirstErr == "" {
				c.res.FirstErr = err.Error()
			}
		}
	}
}

// read takes one answer off the connection and checks it. A broken
// answer closes the connection, so every request behind it fails too.
func (c *client) read(s sent) error {
	_ = c.conn.SetReadDeadline(time.Now().Add(ioTimeout))
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.conn.Close()
		return err
	}
	switch s.req.Kind {
	case reqCommand:
		var serverMs float64
		serverMs, err = c.command(resp)
		if err == nil {
			c.res.CmdSent = append(c.res.CmdSent, s.at.UnixNano())
			c.res.CmdLat = append(c.res.CmdLat, ms(time.Since(s.due)))
			c.res.Server.add(serverMs)
			c.res.Overhead.add(ms(time.Since(s.at)) - serverMs)
		}
	case reqLookup:
		err = c.lookup(resp)
		if err == nil {
			c.res.Lookup.add(ms(time.Since(s.at)))
		}
	case reqTail:
		err = c.tailRead(resp)
		if err == nil {
			c.res.Tail.add(ms(time.Since(s.at)))
		}
	}
	// The rest of the answer, so the next one starts where it should.
	if _, derr := io.Copy(io.Discard, resp.Body); derr != nil {
		c.conn.Close()
		err = errors.Join(err, derr)
	}
	resp.Body.Close()
	return err
}

var errShed = errors.New("shed by admission")

func (c *client) command(resp *http.Response) (float64, error) {
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return 0, errShed
	default:
		c.res.BadStatus++
		return 0, fmt.Errorf("command: status %d", resp.StatusCode)
	}
	var out server.CommandResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("command: %w", err)
	}
	if out.TraceID == "" {
		c.res.NoTrace++
		return 0, errors.New("admitted command without a trace ID")
	}
	c.mu.Lock()
	c.trace = out.TraceID
	c.mu.Unlock()
	return out.LatencyMs, nil
}

// lookup checks that a fetched decision tree — of the connection's
// latest answered command when the lookup was sent — is one connected
// trace.
func (c *client) lookup(resp *http.Response) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("lookup: status %d", resp.StatusCode)
	}
	var view server.DecisionView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return fmt.Errorf("lookup: %w", err)
	}
	var spans []telemetry.Span
	var walk func([]*server.SpanNode)
	walk = func(nodes []*server.SpanNode) {
		for _, n := range nodes {
			spans = append(spans, n.Span)
			walk(n.Children)
		}
	}
	walk(view.Roots)
	if err := telemetry.CheckConnected(spans); err != nil {
		c.res.Disconnected++
		return fmt.Errorf("decision %s: %w", view.TraceID, err)
	}
	return nil
}

// tailRead checks a catch-up read of the journal from the connection's
// cursor against its anchor, and moves the cursor past it.
func (c *client) tailRead(resp *http.Response) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("tail: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var head server.TailHeader
	var entries []audit.Entry
	for first := true; sc.Scan(); first = false {
		if first {
			if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
				return fmt.Errorf("tail header: %w", err)
			}
			continue
		}
		var e audit.Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("tail entry: %w", err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	if err := audit.VerifyTail(head.From, head.PrevHash, entries); err != nil {
		c.res.BadTail++
		return fmt.Errorf("tail from %d: %w", head.From, err)
	}
	c.mu.Lock()
	c.from = max(c.from, head.From+len(entries))
	c.mu.Unlock()
	return nil
}

func deviceID(i int) string { return fmt.Sprintf("dev-%04d", i) }

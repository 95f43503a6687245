// Command loadgen drives a control-plane server (skynetsim serve)
// with command traffic and reports decision-latency quantiles.
//
// Two generator shapes:
//
//   - closed loop (--mode closed): --workers goroutines each submit
//     the next command as soon as the previous decision returns, so
//     offered load tracks server capacity;
//   - open loop (--mode open): commands are launched on a fixed
//     --rps schedule regardless of completions, so queueing delay
//     under overload is visible instead of self-throttled away.
//
// Latency is measured client-side around each POST /v1/commands and
// recorded into a telemetry histogram; the report quotes p50/p95/p99
// from the histogram's interpolated quantiles.
//
// With --addr the generator targets a running server; without it a
// self-hosted fleet (--devices guarded devices, optional
// --admission-rate gate) is started in-process on a loopback port,
// and traffic still crosses real HTTP.
//
// Usage:
//
//	loadgen [--mode closed|open] [--workers n] [--rps r]
//	        [--duration d] [--event type] [--addr url]
//	        [--devices n] [--admission-rate r] [--admission-burst b]
//	        [--out report.json] [--bench-name Name]
//
// The JSON report (--out) is self-describing; --bench-name also
// prints a `go test -bench`-style line so scripts/bench_json.sh can
// fold the run into BENCH_HISTORY.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// Report is the JSON document loadgen emits.
type Report struct {
	Mode      string  `json:"mode"`
	Workers   int     `json:"workers,omitempty"`
	TargetRPS float64 `json:"targetRps,omitempty"`
	// DurationS is the measured wall time of the run.
	DurationS float64 `json:"durationS"`
	Sent      int64   `json:"sent"`
	OK        int64   `json:"ok"`
	Shed      int64   `json:"shed"`
	Errors    int64   `json:"errors"`
	// Overflow counts open-loop launches skipped because the
	// in-flight cap was reached — offered load the server never saw.
	Overflow    int64   `json:"overflow,omitempty"`
	AchievedRPS float64 `json:"achievedRps"`
	// LatencyMs quotes the client-observed decision latency from the
	// histogram's interpolated quantiles.
	LatencyMs LatencyQuantiles `json:"latencyMs"`
	// Server describes the target.
	Server ServerInfo `json:"server"`
}

// LatencyQuantiles holds the interpolated latency quantiles in ms.
type LatencyQuantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// ServerInfo describes what the run targeted.
type ServerInfo struct {
	Addr           string  `json:"addr"`
	SelfHosted     bool    `json:"selfHosted"`
	Devices        int     `json:"devices,omitempty"`
	AdmissionRate  float64 `json:"admissionRate,omitempty"`
	AdmissionBurst float64 `json:"admissionBurst,omitempty"`
}

// maxInFlight bounds open-loop concurrency so an overloaded server
// degrades the report (overflow count) instead of the client host.
const maxInFlight = 512

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args, out)
	if err != nil {
		return err
	}

	base := cfg.addr
	if base != "" && !strings.Contains(base, "://") {
		// Accept the same host:port form `skynetsim serve --addr` takes.
		base = "http://" + base
	}
	info := ServerInfo{Addr: base}
	if base == "" {
		fleet, err := startFleet(cfg.devices, cfg.admissionRate, cfg.admissionBurst)
		if err != nil {
			return err
		}
		defer fleet.close()
		base = fleet.base
		info = ServerInfo{
			Addr: base, SelfHosted: true, Devices: cfg.devices,
			AdmissionRate: cfg.admissionRate, AdmissionBurst: cfg.admissionBurst,
		}
		fmt.Fprintf(out, "self-hosted fleet: %d devices on %s\n", cfg.devices, base)
	}

	reg := telemetry.NewRegistry()
	g := &generator{
		base:  base,
		event: cfg.event,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        maxInFlight,
			MaxIdleConnsPerHost: maxInFlight,
		}},
		hist: reg.Histogram("loadgen.latency_ms"),
		ok:   reg.Counter("loadgen.requests", "result", "ok"),
		shed: reg.Counter("loadgen.requests", "result", "shed"),
		errs: reg.Counter("loadgen.requests", "result", "error"),
		over: reg.Counter("loadgen.overflow"),
	}
	// Resolve the target set once so per-request targets round-robin
	// across real device IDs.
	if err := g.resolveTargets(); err != nil {
		return err
	}
	if err := telemetry.CheckNames(reg.Names()); err != nil {
		return fmt.Errorf("loadgen metric names: %w", err)
	}

	start := time.Now()
	switch cfg.mode {
	case "closed":
		g.closedLoop(cfg.workers, cfg.duration)
	case "open":
		g.openLoop(cfg.rps, cfg.duration)
	default:
		return fmt.Errorf("unknown mode %q (want closed or open)", cfg.mode)
	}
	elapsed := time.Since(start)

	snap := g.hist.Snapshot()
	report := Report{
		Mode:      cfg.mode,
		DurationS: elapsed.Seconds(),
		Sent:      g.sent.Load(),
		OK:        g.ok.Value(),
		Shed:      g.shed.Value(),
		Errors:    g.errs.Value(),
		Overflow:  g.over.Value(),
		LatencyMs: LatencyQuantiles{
			P50: snap.Quantile(0.5),
			P95: snap.Quantile(0.95),
			P99: snap.Quantile(0.99),
		},
		Server: info,
	}
	if cfg.mode == "closed" {
		report.Workers = cfg.workers
	} else {
		report.TargetRPS = cfg.rps
	}
	if report.DurationS > 0 {
		report.AchievedRPS = float64(report.Sent) / report.DurationS
	}

	fmt.Fprintf(out, "%s loop: sent %d in %.2fs (%.1f rps) — ok %d, shed %d, errors %d\n",
		report.Mode, report.Sent, report.DurationS, report.AchievedRPS,
		report.OK, report.Shed, report.Errors)
	fmt.Fprintf(out, "decision latency ms: p50 %.3f  p95 %.3f  p99 %.3f\n",
		report.LatencyMs.P50, report.LatencyMs.P95, report.LatencyMs.P99)
	if cfg.benchName != "" && report.Sent > 0 {
		// One benchmark-formatted line so bench_json.sh can fold this
		// run into the cumulative history.
		nsPerOp := elapsed.Nanoseconds() / report.Sent
		fmt.Fprintf(out, "Benchmark%s %d %d ns/op\n", cfg.benchName, report.Sent, nsPerOp)
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.out)
	}
	return nil
}

// generator submits commands and tallies outcomes.
type generator struct {
	base    string
	event   string
	client  *http.Client
	targets []string

	sent atomic.Int64
	next atomic.Int64

	hist *telemetry.Histogram
	ok   *telemetry.Counter
	shed *telemetry.Counter
	errs *telemetry.Counter
	over *telemetry.Counter
}

// resolveTargets loads the fleet roster so requests address concrete
// devices round-robin (admission is per-recipient).
func (g *generator) resolveTargets() error {
	resp, err := g.client.Get(g.base + "/v1/fleet")
	if err != nil {
		return fmt.Errorf("fleet roster: %w", err)
	}
	defer resp.Body.Close()
	var fleet struct {
		Devices []struct {
			ID string `json:"id"`
		} `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		return fmt.Errorf("fleet roster: %w", err)
	}
	for _, d := range fleet.Devices {
		g.targets = append(g.targets, d.ID)
	}
	if len(g.targets) == 0 {
		return fmt.Errorf("fleet at %s has no devices", g.base)
	}
	return nil
}

// fire submits one command and records its outcome.
func (g *generator) fire() {
	target := g.targets[int(g.next.Add(1))%len(g.targets)]
	body := fmt.Sprintf(`{"type":%q,"target":%q,"source":"loadgen"}`, g.event, target)
	g.sent.Add(1)
	start := time.Now()
	resp, err := g.client.Post(g.base+"/v1/commands", "application/json", strings.NewReader(body))
	latency := time.Since(start)
	if err != nil {
		g.errs.Inc()
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	g.hist.Observe(float64(latency.Microseconds()) / 1000)
	switch {
	case resp.StatusCode == http.StatusOK:
		g.ok.Inc()
	case resp.StatusCode == http.StatusTooManyRequests:
		g.shed.Inc()
	default:
		g.errs.Inc()
	}
}

// closedLoop runs workers goroutines, each firing back-to-back until
// the deadline.
func (g *generator) closedLoop(workers int, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				g.fire()
			}
		}()
	}
	wg.Wait()
}

// openLoop fires on a fixed schedule until the deadline, regardless
// of completions, bounded by maxInFlight.
func (g *generator) openLoop(rps float64, d time.Duration) {
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	start := time.Now()
	deadline := start.Add(d)
	slots := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	// Launch times are scheduled against the start instant, not a
	// ticker: after any sleep overshoot the loop catches up by firing
	// every due launch immediately, so the offered rate holds even at
	// sub-millisecond intervals.
	for i := int64(0); ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.fire()
				<-slots
			}()
		default:
			// In-flight cap reached: the launch is skipped and counted,
			// never silently dropped.
			g.over.Inc()
		}
	}
	wg.Wait()
}

type flags struct {
	mode           string
	workers        int
	rps            float64
	duration       time.Duration
	event          string
	addr           string
	devices        int
	admissionRate  float64
	admissionBurst float64
	out            string
	benchName      string
}

func parseFlags(args []string, out io.Writer) (flags, error) {
	var cfg flags
	fs := newFlagSet(out)
	fs.StringVar(&cfg.mode, "mode", "closed", "generator shape: closed (latency-coupled) or open (fixed schedule)")
	fs.IntVar(&cfg.workers, "workers", 4, "closed-loop concurrency")
	fs.Float64Var(&cfg.rps, "rps", 100, "open-loop launch rate (commands/second)")
	fs.DurationVar(&cfg.duration, "duration", 3*time.Second, "generation window")
	fs.StringVar(&cfg.event, "event", "tick", "event type each command carries")
	fs.StringVar(&cfg.addr, "addr", "", "base URL of a running server (empty = self-host)")
	fs.IntVar(&cfg.devices, "devices", 8, "self-hosted fleet size")
	fs.Float64Var(&cfg.admissionRate, "admission-rate", 0, "self-hosted per-device admission rate (0 = ungated)")
	fs.Float64Var(&cfg.admissionBurst, "admission-burst", 0, "self-hosted admission burst (default max(rate, 1))")
	fs.StringVar(&cfg.out, "out", "", "write the JSON report here")
	fs.StringVar(&cfg.benchName, "bench-name", "", "also print a benchmark-formatted line under this name")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() != 0 {
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if cfg.workers <= 0 || cfg.devices <= 0 || cfg.rps <= 0 || cfg.duration <= 0 {
		return cfg, fmt.Errorf("workers, devices, rps and duration must be positive")
	}
	if cfg.benchName != "" && strings.ContainsAny(cfg.benchName, " \t") {
		return cfg, fmt.Errorf("bench-name %q must not contain whitespace", cfg.benchName)
	}
	return cfg, nil
}

func newFlagSet(out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(out)
	return fs
}

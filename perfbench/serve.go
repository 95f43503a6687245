package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// The serve workload: a control plane over a guarded fleet with
// admission on, driven over loopback HTTP by the open-loop generator
// process (loadgen.go): three fixed rates, then saturation steps that
// find how fast the server can go.
const (
	serveDevices = 1000
	// admissionRate and admissionBurst are each device's token bucket:
	// far above a device's share of the saturation rate, so no command
	// is shed.
	admissionRate  = 500
	admissionBurst = 100
	serveSetups    = 25
)

// serveRates is the fixed ladder, in requests per second; serve.p50_ms
// and serve.p99_ms are the middle rate's, the _peak variants the top's.
var serveRates = []float64{1000, 2000, 4000}

// serveShare is each ladder rate's share of the measured phase; the
// saturation steps that follow take the rest.
var serveShare = []float64{0.05, 0.1, 0.05}

// plane is one built control plane.
type plane struct {
	log *audit.Log
	reg *telemetry.Registry
	srv *server.Server
	col *core.Collective
}

func buildPlane(seed int64, pr *probes) (*plane, error) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.WithTracerMetrics(reg))
	log := audit.New()
	col, err := core.New(core.Config{
		Name: "perfbench-serve", Audit: log, KillSecret: []byte("perfbench-serve"),
		Classifier: overheating, Telemetry: reg, Tracer: tracer, ExpectedMembers: serveDevices,
	})
	if err != nil {
		return nil, err
	}
	pol, err := policylang.CompileSource(serveSource, policy.OriginHuman)
	if err != nil {
		return nil, err
	}
	for i, p := range plants(seed, serveDevices) {
		initial, err := heatSchema.StateFromMap(map[string]float64{"heat": p.Heat})
		if err != nil {
			return nil, err
		}
		var g guard.Guard = core.StandardPipeline(core.SafetyConfig{
			Audit: log, Classifier: overheating,
			HarmPredictor: ventIsHarmful, HarmThreshold: 0.5,
			Telemetry: reg, Tracer: tracer,
		})
		var act device.Actuator = device.NopActuator{}
		if pr != nil {
			g = timedGuard{inner: g, s: pr.guard}
			act = wrapActuator(act, pr.actuator)
		}
		d, err := device.New(device.Config{
			ID: deviceID(i), Type: "reactor", Organization: "us",
			Initial: initial, Guard: g, KillSwitch: col.KillSwitch(), Audit: log,
			Telemetry: reg, Tracer: tracer,
		})
		if err != nil {
			return nil, err
		}
		if err := d.Policies().AddBatch(pol); err != nil {
			return nil, err
		}
		d.SetDefaultActuator(act)
		if err := col.AddDevice(d, nil); err != nil {
			return nil, err
		}
	}
	intake, err := admission.New(admission.Config{Rate: admissionRate, Burst: admissionBurst, Metrics: reg})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Collective: col, Audit: log, Registry: reg, Tracer: tracer, Admission: intake,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &plane{log: log, reg: reg, srv: srv, col: col}, nil
}

func (p *plane) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx)
}

func runServe(cfg run) (*report, error) {
	rep := newReport()
	var pr *probes
	if cfg.trace {
		pr = newProbes()
	}
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		runtime.GC()
		cpu := cpuTime()
		p, err := buildPlane(cfg.seed, pr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - cpu).Seconds())
		p.stop()
	}
	rep.metrics["setup_s"] = median(setups)

	gen, err := startGenerator(cfg.seed)
	if err != nil {
		return nil, err
	}
	sr := &serveRun{cfg: cfg, pr: pr, gen: gen}
	saturated, perCPU, err := sr.measure()
	if cerr := gen.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	steps := sr.steps
	// ladder is the paced steps alone: a flat-out step's send → answer
	// times include the wait behind the connection's window.
	var all, ladder stepResult
	for i := range steps {
		all.merge(&steps[i])
		if i < len(serveRates) {
			ladder.merge(&steps[i])
		}
		s := &steps[i]
		fmt.Fprintf(os.Stderr, "  rate %7.0f/s: sent=%d ok=%d shed=%d failed=%d p50=%.3fms p99=%.3fms late-p50=%.3fms served %.0f/s in %.1fs\n",
			s.Rate, s.Sent, s.OK, s.Shed, s.Failed, s.Lat.p50(), s.p99(), s.Late.p50(), float64(s.OK)/s.Elapsed, s.Elapsed)
	}
	rep.attempted += all.Sent
	rep.failed += all.Shed + all.Failed
	if all.FirstErr != "" {
		fmt.Fprintf(os.Stderr, "  first failure: %s\n", all.FirstErr)
	}
	bad := all.NoTrace + all.BadStatus
	rep.verify("admitted commands return 200 with a trace ID",
		errIf(bad != 0, "%d commands answered without 200 and a trace ID", bad))
	rep.verify("decision trees are connected", errIf(all.Disconnected != 0, "%d disconnected decision trees", all.Disconnected))
	rep.verify("audit tail prefixes verify", errIf(all.BadTail != 0, "%d audit tails that fail to verify", all.BadTail))
	rep.verify("audit chains verify", sr.chainErr)

	if !cfg.trace {
		rep.metrics["ops_per_s"] = saturated
		rep.metrics["ops_per_cpu_s"] = perCPU
		rep.metrics["live_heap_mb"] = sr.heapMB
		return rep, nil
	}

	cmds := float64(all.commands())
	mid, top := &steps[1], &steps[len(serveRates)-1]
	on, off := splitByTracing(mid, sr.toggles)
	m := rep.metrics
	m["server.decision_ms_p50"] = all.Server.p50()
	m["server.http_overhead_ms_p50"] = ladder.Overhead.p50()
	m["guard.check_us_p50"] = pr.guard.dist(time.Microsecond).p50()
	m["admission.admitted"] = sr.counts[0]
	m["admission.shed"] = sr.counts[1]
	m["audit.entries_per_cmd"] = sr.counts[2] / cmds
	m["telemetry.spans_per_cmd"] = sr.counts[3] / cmds
	m["trace.evicted"] = sr.counts[4]
	m["serve.lookup_ms_p50"] = ladder.Lookup.p50()
	m["serve.tail_ms_p50"] = ladder.Tail.p50()
	m["runtime.bytes_per_cmd"] = sr.rt.bytes / cmds
	m["gen.lateness_ms_p99"] = ladder.Late.tail(0.99)
	m["serve.p50_ms"] = mid.Lat.p50()
	m["serve.p99_ms"] = mid.p99()
	m["serve.p50_ms_peak"] = top.Lat.p50()
	m["serve.p99_ms_peak"] = top.p99()
	m["trace.overhead_frac"] = on.p50()/off.p50() - 1
	m["audit.append_ns"] = sr.appendNs
	m["policy.eval_ns"] = sr.evalNs
	return rep, nil
}

// The saturation steps: satStepRequests requests each, all due at
// once, so every connection's window of unanswered requests stays full
// and the server runs flat out. Each step is a fixed
// amount of work whatever the server's speed. An untraced run sends
// steps until its measured phase has lasted the run's length, at least
// satMinSteps of them; the median over the steps keeps a slow stretch
// of the host from standing for the whole run. A traced run sends
// satMinSteps, so its counts are of a fixed amount of work.
const (
	satStepRequests = 8000
	satMinSteps     = 9
)

// serveRun is one run of the serve workload: every rate step goes to a
// freshly built control plane, so each step meets the same server
// state whatever steps came before it.
type serveRun struct {
	cfg   run
	pr    *probes
	gen   *generator
	steps []stepResult

	chainErr error   // journals that failed to verify
	heapMB   float64 // live heap at the end of the middle ladder step
	// Traced runs: counts summed over the steps (warm-ups left out),
	// and the probes of the middle ladder step's plane.
	toggles          []toggle
	counts           books
	rt               rtDelta
	appendNs, evalNs float64
}

// books are a plane's counts the traced run reports, in the order
// admitted, shed, journal entries, spans, evicted spans.
type books [5]float64

func (p *plane) books() books {
	return books{
		float64(p.reg.CounterTotal("admission.admitted")),
		float64(p.reg.CounterTotal("admission.shed")),
		float64(p.log.Len()),
		float64(p.reg.CounterTotal("trace.spans")),
		float64(p.reg.CounterTotal("trace.evicted")),
	}
}

// measure runs the fixed ladder and the saturation steps and returns
// the median over the saturation steps of the rate each was served at
// and of the requests each served per CPU-second of this process.
func (sr *serveRun) measure() (rate, perCPU float64, err error) {
	start := time.Now()
	for i, r := range serveRates {
		if _, err := sr.step(r, int(r*serveShare[i]*sr.cfg.seconds)); err != nil {
			return 0, 0, err
		}
	}
	var rates, perCPUs []float64
	for len(rates) < satMinSteps || (!sr.cfg.trace && time.Since(start).Seconds() < sr.cfg.seconds) {
		res, err := sr.step(flatOutRate, satStepRequests)
		if err != nil {
			return 0, 0, err
		}
		rates = append(rates, float64(res.OK)/res.Elapsed)
		perCPUs = append(perCPUs, float64(res.OK)/res.cpu.Seconds())
	}
	return median(rates), median(perCPUs), nil
}

// step builds a control plane and has the generator send it n requests
// at rate.
func (sr *serveRun) step(rate float64, n int) (*stepResult, error) {
	runtime.GC()
	p, err := buildPlane(sr.cfg.seed, sr.pr)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	i := len(sr.steps)
	var (
		cpu      time.Duration
		rt       rtWindow
		before   books
		stopFlip chan struct{}
		flipped  chan []toggle
	)
	res, err := sr.gen.step(genStep{Addr: p.srv.Addr(), Step: i, Rate: rate, N: n},
		func() {
			cpu, rt, before = cpuTime(), startRuntime(), p.books()
			if sr.pr != nil && i == 1 {
				stopFlip, flipped = make(chan struct{}), make(chan []toggle, 1)
				go flipTracing(sr.pr, stopFlip, flipped)
			}
		})
	if stopFlip != nil {
		close(stopFlip)
		sr.toggles = <-flipped
	}
	if err != nil {
		return nil, err
	}
	res.cpu = cpuTime() - cpu
	rtd := rt.stop()
	sr.steps = append(sr.steps, *res)
	if err := p.log.Verify(); err != nil {
		sr.chainErr = errors.Join(sr.chainErr, fmt.Errorf("step %d: %w", i, err))
	}
	if sr.pr != nil {
		after := p.books()
		for i := range after {
			sr.counts[i] += after[i] - before[i]
		}
		sr.rt.addTo(rtd)
	}
	if i == 1 {
		// A fixed amount of work: the warm-up and the middle ladder step.
		sr.heapMB = liveHeapMB()
		if sr.pr != nil {
			sr.appendNs = probeAppend(p.log)
			sr.evalNs = probeEvaluate(p.col.Devices(), time.Now())
		}
	}
	return res, nil
}

// toggle is the moment the traced run switched its wrappers' timing.
type toggle struct {
	at int64 // unix ns
	on bool
}

// generator is the running generator process.
type generator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	out *bufio.Scanner
}

func startGenerator(seed int64) (*generator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--generate", "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	return &generator{cmd: cmd, in: in, enc: json.NewEncoder(in), out: sc}, nil
}

// step has the generator run st, calling started when the generator
// has warmed the server and begins sending the step's requests.
func (g *generator) step(st genStep, started func()) (*stepResult, error) {
	if err := g.enc.Encode(st); err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	for {
		if !g.out.Scan() {
			return nil, fmt.Errorf("generator stopped in step %d: %v", st.Step, g.out.Err())
		}
		var ev genEvent
		if err := json.Unmarshal(g.out.Bytes(), &ev); err != nil || ev.Step != st.Step {
			return nil, errors.Join(err, fmt.Errorf("bad generator report %.80q", g.out.Text()))
		}
		if ev.Result != nil {
			return ev.Result, nil
		}
		started()
	}
}

// close ends the generator's input and waits for it to exit; it kills
// a generator that does not.
func (g *generator) close() error {
	_ = g.in.Close()
	done := make(chan error, 1)
	go func() { done <- g.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("generator: %w", err)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = g.cmd.Process.Kill()
		<-done
		return errors.New("generator did not exit")
	}
}

// flipTracing switches the wrappers' timing every 250ms until stop is
// closed, then leaves it on and hands back the switch times.
func flipTracing(pr *probes, stop <-chan struct{}, done chan<- []toggle) {
	toggles := []toggle{{at: time.Now().UnixNano(), on: true}}
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			pr.enable(true)
			done <- toggles
			return
		case <-t.C:
			on := !toggles[len(toggles)-1].on
			pr.enable(on)
			toggles = append(toggles, toggle{at: time.Now().UnixNano(), on: on})
		}
	}
}

// splitByTracing divides a step's command latencies by whether the
// wrappers were timing when each command was sent.
func splitByTracing(s *stepResult, toggles []toggle) (on, off dist) {
	for i, sent := range s.CmdSent {
		state := true
		for _, t := range toggles {
			if t.at > sent {
				break
			}
			state = t.on
		}
		if state {
			on.add(s.CmdLat[i])
		} else {
			off.add(s.CmdLat[i])
		}
	}
	return on, off
}

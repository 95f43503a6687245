// Command perfbench is the repository's layered benchmark. It drives
// the three end-to-end paths of the system — the MAPE-K fleet tick, the
// signed bundle rollout, and the served command — through their public
// Go APIs and real loopback HTTP, and prints one JSON result line.
//
//	perfbench --workload fleet-tick|rollout|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no instrumentation installed. With --trace 1 the same workload
// runs with timing wrappers around the interfaces the program accepts
// (guards, actuators, bundle signers and verifiers), segment timers
// around public calls, counters read from the telemetry registry, and
// micro-probes of single layers on inputs captured from the run; the
// result carries the per-layer metrics instead. The seed is the only
// source of input variation: the same seed generates the same inputs.
//
// Human-readable detail goes to standard error; the last line of
// standard output is the result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports each one; what an operation is per workload is set out in
// results/NOTES.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"ops_per_cpu_s", "1/cpu-s"},
}

// perLayer are the single-layer metrics of the traced run. A workload
// that does not exercise a layer reports it as zero.
var perLayer = []metricDef{
	// fleet tick: sim, device, policy, guard, audit, runtime
	{"guard.checks_per_tick", "count"},
	{"guard.check_us_p50", "us"},
	{"audit.entries_per_tick", "count"},
	{"audit.append_ns", "ns"},
	{"policy.eval_ns", "ns"},
	{"sim.unattributed_frac", "frac"},
	{"fleet.round_ms_p50", "ms"},
	{"fleet.round_ms_p90", "ms"},
	{"sim.sweep_round_ms", "ms"},
	{"sim.speedup_w2", "x"},
	{"sim.per_device_growth", "x"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.allocs_per_tick", "count"},
	{"runtime.bytes_per_tick", "B"},
	// bundle rollout: core distributor, bundle, policylang, network
	{"core.publish_ms", "ms"},
	{"core.lagging_query_us", "us"},
	{"core.per_sub_growth", "x"},
	{"bundle.sign_us", "us"},
	{"bundle.verify_us", "us"},
	{"bundle.verifies_per_activation", "count"},
	{"bundle.decode_us", "us"},
	{"bundle.apply_us", "us"},
	{"policylang.compile_us", "us"},
	{"bundle.bytes_per_push", "B"},
	{"network.msgs_per_activation", "count"},
	{"rollout.converge_ms_p50", "ms"},
	{"rollout.first_round_ms_p50", "ms"},
	{"rollout.first_round_extra_ms", "ms"},
	// served command: server, admission, device, guard, audit, telemetry
	{"server.decision_ms_p50", "ms"},
	{"server.http_overhead_ms_p50", "ms"},
	{"admission.admitted", "count"},
	{"admission.shed", "count"},
	{"audit.entries_per_cmd", "count"},
	{"telemetry.spans_per_cmd", "count"},
	{"trace.evicted", "count"},
	{"serve.lookup_ms_p50", "ms"},
	{"serve.tail_ms_p50", "ms"},
	{"runtime.bytes_per_cmd", "B"},
	{"gen.lateness_ms_p99", "ms"},
	{"serve.p50_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.p50_ms_peak", "ms"},
	{"serve.p99_ms_peak", "ms"},
	// every workload: what tracing itself cost
	{"trace.overhead_frac", "frac"},
}

// run is one benchmark invocation's settings.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	workers int
}

// report is what a workload hands back: its metrics, its operation
// books, and the outcome of every correctness check it made.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	checks    []check
}

// check is one correctness verdict.
type check struct {
	name string
	err  error
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

// verify records a correctness check; a failed check also counts as a
// failed operation.
func (r *report) verify(name string, err error) {
	r.checks = append(r.checks, check{name: name, err: err})
	r.attempted++
	if err != nil {
		r.failed++
	}
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

type workload struct {
	name string
	fn   func(run) (*report, error)
}

var workloads = []workload{
	{"fleet-tick", runFleetTick},
	{"rollout", runRollout},
	{"serve", runServe},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the reported catalogue and checks that the
// workload measured every metric it must.
func buildResult(rep *report, traced bool) (result, error) {
	defs, required := endToEnd, true
	if traced {
		defs, required = perLayer, false
	}
	res := result{
		Correct:   rep.correct(),
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return res, errors.New("workload attempted no operations")
	}
	for _, m := range defs {
		v, ok := rep.metrics[m.Name]
		if !ok && required {
			return res, fmt.Errorf("workload did not measure %s", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run: fleet-tick, rollout or serve")
	seed := flag.Int64("seed", 1, "input seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of an instrumented run")
	generate := flag.Bool("generate", false, "run as the serve workload's load generator, reading its steps on standard input")
	flag.Parse()
	if *generate {
		return runGenerator(*seed)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg := run{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: min(2, runtime.NumCPU())}
	start := time.Now()
	rep, err := wl.fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	res, err := buildResult(rep, cfg.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	describe(wl.name, cfg, rep, res, time.Since(start))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// describe prints the run's table and checks to standard error.
func describe(name string, cfg run, rep *report, res result, wall time.Duration) {
	fmt.Fprintf(os.Stderr, "workload=%s seed=%d seconds=%g trace=%v workers=%d wall=%.1fs\n",
		name, cfg.seed, cfg.seconds, cfg.trace, cfg.workers, wall.Seconds())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, c := range rep.checks {
		verdict := "ok"
		if c.err != nil {
			verdict = "FAIL: " + c.err.Error()
		}
		fmt.Fprintf(os.Stderr, "  check %-30s %s\n", c.name, verdict)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

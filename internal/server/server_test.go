package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/sim"
	"repro/internal/statespace"
	"repro/internal/telemetry"
)

// testFleet bundles everything a control-plane test needs.
type testFleet struct {
	srv        *Server
	base       string
	collective *core.Collective
	log        *audit.Log
	reg        *telemetry.Registry
	tracer     *telemetry.Tracer
	// engine runs the collective's bus; bundle rollouts settle on it.
	engine *sim.Engine
}

// newTestFleet builds a 3-device guarded collective (heat/fuel state,
// bad above heat 150) behind a started control-plane server. Each
// device runs the policy "on tick: heat += 15", so repeated commands
// eventually drive the state-space guard to deny.
func newTestFleet(t *testing.T, adm *admission.Controller) *testFleet {
	t.Helper()
	schema, err := statespace.NewSchema(
		statespace.Var("heat", 0, 200),
		statespace.Var("fuel", 0, 100),
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	classifier := statespace.ClassifierFunc(func(st statespace.State) statespace.Class {
		if st.MustGet("heat") >= 150 {
			return statespace.ClassBad
		}
		return statespace.ClassGood
	})
	log := audit.New()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	engine := sim.NewEngine(sim.NewClock(time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)))
	collective, err := core.New(core.Config{
		Name:       "test-fleet",
		Bus:        network.NewBus(nil, network.WithEngine(engine)),
		Audit:      log,
		KillSecret: []byte("test-secret"),
		Classifier: classifier,
		Telemetry:  reg,
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	initial, err := schema.StateFromMap(map[string]float64{"fuel": 100})
	if err != nil {
		t.Fatalf("StateFromMap: %v", err)
	}
	policies, err := policylang.CompileSource(
		"policy work:\n    on tick\n    do run-load category work effect heat += 15",
		policy.OriginHuman)
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	for i := 0; i < 3; i++ {
		d, err := device.New(device.Config{
			ID:           fmt.Sprintf("dev-%d", i),
			Type:         "worker",
			Organization: "test",
			Initial:      initial,
			Guard: core.StandardPipeline(core.SafetyConfig{
				Audit:      log,
				Classifier: classifier,
				Telemetry:  reg,
				Tracer:     tracer,
			}),
			KillSwitch: collective.KillSwitch(),
			Audit:      log,
			Telemetry:  reg,
			Tracer:     tracer,
		})
		if err != nil {
			t.Fatalf("device.New: %v", err)
		}
		for _, p := range policies {
			if err := d.Policies().Add(p); err != nil {
				t.Fatalf("Add policy: %v", err)
			}
		}
		if err := collective.AddDevice(d, nil); err != nil {
			t.Fatalf("AddDevice: %v", err)
		}
	}
	srv, err := New(Config{
		Collective: collective,
		Audit:      log,
		Registry:   reg,
		Tracer:     tracer,
		Admission:  adm,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &testFleet{
		srv: srv, base: "http://" + srv.Addr(),
		collective: collective, log: log, reg: reg, tracer: tracer,
		engine: engine,
	}
}

func postCommand(t *testing.T, base string, req CommandRequest) (int, CommandResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/commands", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/commands: %v", err)
	}
	defer resp.Body.Close()
	var out CommandResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode command response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// flattenTree returns every span in the tree, depth-first.
func flattenTree(roots []*SpanNode) []telemetry.Span {
	var out []telemetry.Span
	var walk func(*SpanNode)
	walk = func(n *SpanNode) {
		out = append(out, n.Span)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// TestCommandDecisionEndToEnd is the acceptance test: a command
// submitted over POST /v1/commands comes back with a trace ID, and
// GET /v1/decisions/{traceID} returns one connected span tree
// running intake → device.handle → execution → guard verdicts,
// joined with the audit entries the decision stamped.
func TestCommandDecisionEndToEnd(t *testing.T) {
	f := newTestFleet(t, nil)

	code, resp := postCommand(t, f.base, CommandRequest{Type: "tick", Target: "*", Source: "tester"})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/commands = %d (%+v)", code, resp)
	}
	if resp.TraceID == "" {
		t.Fatal("command response has no trace ID")
	}
	if resp.Executed != 3 {
		t.Errorf("executed = %d, want 3 (one per device)", resp.Executed)
	}
	if len(resp.Devices) != 3 {
		t.Errorf("device outcomes = %d, want 3", len(resp.Devices))
	}
	for id, execs := range resp.Devices {
		for _, e := range execs {
			if !e.Executed || e.Action != "run-load" {
				t.Errorf("device %s: outcome %+v, want executed run-load", id, e)
			}
		}
	}
	if resp.LatencyMs < 0 {
		t.Errorf("latencyMs = %g, want >= 0", resp.LatencyMs)
	}

	var view DecisionView
	if code := getJSON(t, f.base+"/v1/decisions/"+resp.TraceID, &view); code != http.StatusOK {
		t.Fatalf("GET /v1/decisions = %d", code)
	}
	if !view.Connected {
		t.Fatalf("decision tree not connected: %s", view.Issue)
	}
	if len(view.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(view.Roots))
	}
	if got := view.Roots[0].Name; got != "server.command" {
		t.Errorf("root span = %q, want server.command", got)
	}

	flat := flattenTree(view.Roots)
	if len(flat) != view.Spans {
		t.Errorf("tree holds %d spans, view.Spans = %d", len(flat), view.Spans)
	}
	// The flattened tree must re-verify as a single connected trace.
	if err := telemetry.CheckConnected(flat); err != nil {
		t.Errorf("CheckConnected(tree spans): %v", err)
	}
	names := map[string]int{}
	for _, sp := range flat {
		names[sp.Name]++
	}
	for _, want := range []string{"server.command", "device.handle", "device.execute", "guard.check"} {
		if names[want] == 0 {
			t.Errorf("span tree missing %q (have %v)", want, names)
		}
	}
	if names["device.handle"] != 3 {
		t.Errorf("device.handle spans = %d, want 3", names["device.handle"])
	}

	// The decision's audit footprint: every joined entry carries the
	// trace ID, and the executed actions appear in the journal.
	if len(view.Audit) == 0 {
		t.Error("decision has no audit entries")
	}
	for _, e := range view.Audit {
		if e.Context["trace"] != resp.TraceID {
			t.Errorf("audit entry %d carries trace %q, want %q", e.Seq, e.Context["trace"], resp.TraceID)
		}
	}

	// Unknown and malformed trace IDs.
	var eb errorBody
	if code := getJSON(t, f.base+"/v1/decisions/dead00beef00", &eb); code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", code)
	}
	if code := getJSON(t, f.base+"/v1/decisions/nothex!", &eb); code != http.StatusBadRequest {
		t.Errorf("bad trace id = %d, want 400", code)
	}
}

// TestCommandValidation covers the error paths of POST /v1/commands.
func TestCommandValidation(t *testing.T) {
	f := newTestFleet(t, nil)

	resp, err := http.Post(f.base+"/v1/commands", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}

	if code, _ := postCommand(t, f.base, CommandRequest{Target: "dev-0"}); code != http.StatusBadRequest {
		t.Errorf("missing type = %d, want 400", code)
	}
	if code, _ := postCommand(t, f.base, CommandRequest{Type: "tick", Target: "ghost"}); code != http.StatusNotFound {
		t.Errorf("unknown target = %d, want 404", code)
	}
	getResp, err := http.Get(f.base + "/v1/commands")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/commands = %d, want 405", getResp.StatusCode)
	}
}

// TestCommandAdmissionShed verifies the admission gate: once the
// per-recipient rate is exhausted, targets are shed with a typed
// cause, and a fully-shed command returns 429.
func TestCommandAdmissionShed(t *testing.T) {
	adm, err := admission.New(admission.Config{Rate: 0.001, Burst: 1})
	if err != nil {
		t.Fatalf("admission.New: %v", err)
	}
	f := newTestFleet(t, adm)

	// Burst 1: the first command per device is admitted...
	code, resp := postCommand(t, f.base, CommandRequest{Type: "tick", Target: "*"})
	if code != http.StatusOK || resp.Executed != 3 {
		t.Fatalf("first command = %d, executed %d; want 200 and 3", code, resp.Executed)
	}
	// ...and the second is rate-shed everywhere.
	code, resp = postCommand(t, f.base, CommandRequest{Type: "tick", Target: "*"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("exhausted command = %d, want 429", code)
	}
	if len(resp.Shed) != 3 {
		t.Fatalf("shed = %d targets, want 3", len(resp.Shed))
	}
	for _, sh := range resp.Shed {
		if sh.Cause != "rate_limited" {
			t.Errorf("shed cause = %q, want rate_limited", sh.Cause)
		}
	}
	if resp.Executed != 0 {
		t.Errorf("executed despite shed: %d", resp.Executed)
	}
}

// TestFleetView checks GET /v1/fleet reflects per-device state,
// policy counts and the journal length.
func TestFleetView(t *testing.T) {
	f := newTestFleet(t, nil)
	if _, resp := postCommand(t, f.base, CommandRequest{Type: "tick", Target: "dev-1"}); resp.Executed != 1 {
		t.Fatalf("setup command executed = %d, want 1", resp.Executed)
	}

	var view FleetView
	if code := getJSON(t, f.base+"/v1/fleet", &view); code != http.StatusOK {
		t.Fatalf("GET /v1/fleet = %d", code)
	}
	if view.Name != "test-fleet" || view.Total != 3 || view.Active != 3 {
		t.Errorf("fleet summary = %+v, want test-fleet 3/3", view)
	}
	if view.AuditLen != f.log.Len() {
		t.Errorf("auditLen = %d, want %d", view.AuditLen, f.log.Len())
	}
	states := map[string]map[string]float64{}
	for _, d := range view.Devices {
		states[d.ID] = d.State
		if d.Policies != 1 {
			t.Errorf("device %s policies = %d, want 1", d.ID, d.Policies)
		}
		// Locally-authored policies are not bundle-managed.
		if d.PolicyRevision != 0 {
			t.Errorf("device %s policyRevision = %d, want 0", d.ID, d.PolicyRevision)
		}
	}
	if got := states["dev-1"]["heat"]; got != 15 {
		t.Errorf("dev-1 heat = %g, want 15 after one tick", got)
	}
	if got := states["dev-0"]["heat"]; got != 0 {
		t.Errorf("dev-0 heat = %g, want 0 (not targeted)", got)
	}
}

// TestServerMetricsAndNames verifies the server observes its own
// instrument family — request counters, command results and the
// decision-latency histogram with quantiles — and that every metric
// the full stack emitted is declared in the telemetry names table.
func TestServerMetricsAndNames(t *testing.T) {
	f := newTestFleet(t, nil)
	for i := 0; i < 5; i++ {
		postCommand(t, f.base, CommandRequest{Type: "tick", Target: "dev-0"})
	}
	var fv FleetView
	getJSON(t, f.base+"/v1/fleet", &fv)

	resp, err := http.Get(f.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		`server_commands{result="ok"} 5`,
		`server_requests{code="200",route="fleet"} 1`,
		"server_decision_ms_count 5",
		`server_decision_ms{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := telemetry.CheckNames(f.reg.Names()); err != nil {
		t.Errorf("CheckNames after full server exercise: %v", err)
	}
}

// TestServerGracefulShutdown verifies Shutdown drains and stops.
func TestServerGracefulShutdown(t *testing.T) {
	f := newTestFleet(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(f.base + "/healthz"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

// TestNewValidation checks the required-field errors.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without collective succeeded")
	}
	if _, err := New(Config{Collective: &core.Collective{}}); err == nil {
		t.Error("New without audit log succeeded")
	}
}

// TestFleetViewRoots checks the coalition bundle plane surfaces in
// /v1/fleet: one row per org root with its published revision and
// lagging count, and each device's per-root activated revisions.
func TestFleetViewRoots(t *testing.T) {
	f := newTestFleet(t, nil)
	usKey := bundle.HMACKey{ID: "us-root", Secret: []byte("us secret")}
	ukKey := bundle.HMACKey{ID: "uk-root", Secret: []byte("uk secret")}
	dist, err := core.NewDistributor(core.DistributorConfig{
		Collective: f.collective,
		Roots: []core.RootConfig{
			{Org: "us", Signer: usKey},
			{Org: "uk", Signer: ukKey},
		},
	})
	if err != nil {
		t.Fatalf("NewDistributor: %v", err)
	}
	ring := bundle.NewKeyRing().
		Add(usKey.ID, usKey, bundle.Scope{Org: "us"}).
		Add(ukKey.ID, ukKey, bundle.Scope{Org: "uk"})
	for id, orgs := range map[string][]string{
		"dev-0": {"us"}, "dev-1": {"uk"}, "dev-2": {"us", "uk"},
	} {
		if err := dist.EnrollRoots(id, ring, orgs...); err != nil {
			t.Fatalf("EnrollRoots %s: %v", id, err)
		}
	}
	publish := func(org, id string) {
		t.Helper()
		pols, err := policylang.CompileSource(
			"policy "+org+"."+id+":\n    on tick\n    do run-load category work effect heat += 1",
			policy.OriginHuman)
		if err != nil {
			t.Fatalf("CompileSource: %v", err)
		}
		if _, err := dist.PublishRoot(org, pols); err != nil {
			t.Fatalf("PublishRoot %s: %v", org, err)
		}
		if err := f.engine.RunUntilIdle(); err != nil {
			t.Fatalf("RunUntilIdle: %v", err)
		}
	}
	publish("us", "pa")
	publish("uk", "pa")
	publish("uk", "pb")

	srv, err := New(Config{Collective: f.collective, Audit: f.log, Distributor: dist})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	var view FleetView
	if code := getJSON(t, "http://"+srv.Addr()+"/v1/fleet", &view); code != http.StatusOK {
		t.Fatalf("GET /v1/fleet = %d", code)
	}
	wantRoots := map[string]uint64{"us": 1, "uk": 2}
	if len(view.Roots) != 2 {
		t.Fatalf("roots = %+v, want 2 rows", view.Roots)
	}
	for _, rv := range view.Roots {
		if want, ok := wantRoots[rv.Org]; !ok || rv.Revision != want {
			t.Errorf("root %q at revision %d, want %d", rv.Org, rv.Revision, wantRoots[rv.Org])
		}
		if rv.Lagging != 0 {
			t.Errorf("root %q lagging %d, want 0 (settled rollout)", rv.Org, rv.Lagging)
		}
	}
	byID := map[string]DeviceView{}
	for _, dv := range view.Devices {
		byID[dv.ID] = dv
	}
	if got := byID["dev-2"].BundleRevisions; got["us"] != 1 || got["uk"] != 2 {
		t.Errorf("dev-2 bundle revisions = %v, want us:1 uk:2", got)
	}
	if got := byID["dev-0"].BundleRevisions; len(got) != 1 || got["us"] != 1 {
		t.Errorf("dev-0 bundle revisions = %v, want only us:1", got)
	}
}

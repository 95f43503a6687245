package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeScenario(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestRunScenario(t *testing.T) {
	path := writeScenario(t, `{
		"name": "test",
		"badHeatAt": 80,
		"denialThreshold": 3,
		"devices": [
			{"id": "guarded", "heat": 20,
			 "policies": "policy work: on tick do run category work effect heat += 15"},
			{"id": "rogue", "heat": 20, "unguarded": true,
			 "policies": "policy work: on tick do run category work effect heat += 15"}
		],
		"events": [{"type": "tick", "target": "*", "repeat": 8}]
	}`)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "watchdog deactivated [rogue]") {
		t.Errorf("rogue not contained:\n%s", out)
	}
	if !strings.Contains(out, "chain verified") {
		t.Errorf("audit not verified:\n%s", out)
	}
	if !strings.Contains(out, "actions denied") {
		t.Errorf("missing summary:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, os.Stdout); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"/nonexistent.json"}, os.Stdout); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeScenario(t, "{not json")
	if err := run([]string{bad}, os.Stdout); err == nil {
		t.Error("malformed JSON accepted")
	}
	badPolicy := writeScenario(t, `{"name":"x","devices":[{"id":"d","policies":"garbage"}]}`)
	if err := run([]string{badPolicy}, os.Stdout); err == nil {
		t.Error("bad policy DSL accepted")
	}
	badTarget := writeScenario(t, `{"name":"x","devices":[{"id":"d"}],"events":[{"type":"e","target":"ghost"}]}`)
	var sb strings.Builder
	if err := run([]string{badTarget}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "unknown device") {
		t.Errorf("unknown target not reported:\n%s", sb.String())
	}
}

func TestRunCustomSchema(t *testing.T) {
	path := writeScenario(t, `{
		"name": "reactor",
		"variables": [
			{"name": "pressure", "min": 0, "max": 500},
			{"name": "coolant", "min": 0, "max": 100}
		],
		"badWhen": [
			{"variable": "pressure", "op": ">=", "value": 400},
			{"variable": "coolant", "op": "<", "value": 10}
		],
		"devices": [
			{"id": "reactor-1", "state": {"pressure": 100, "coolant": 80},
			 "policies": "policy pump: on tick do pressurize category work effect pressure += 120"}
		],
		"events": [{"type": "tick", "target": "reactor-1", "repeat": 5}]
	}`)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	// 100 → 220 → 340; the next +120 would reach 460 ≥ 400 (bad) and
	// must be denied, so the device stops at 340.
	if !strings.Contains(out, "pressure=340") {
		t.Errorf("guard did not hold pressure at 340:\n%s", out)
	}
	if !strings.Contains(out, "actions denied:   3") {
		t.Errorf("denials wrong:\n%s", out)
	}
}

func TestRunCustomSchemaErrors(t *testing.T) {
	badVar := writeScenario(t, `{"name":"x","variables":[{"name":"p"}],
		"badWhen":[{"variable":"ghost","op":">","value":1}],"devices":[]}`)
	if err := run([]string{badVar}, os.Stdout); err == nil {
		t.Error("unknown badWhen variable accepted")
	}
	badOp := writeScenario(t, `{"name":"x","variables":[{"name":"p"}],
		"badWhen":[{"variable":"p","op":"%","value":1}],"devices":[]}`)
	if err := run([]string{badOp}, os.Stdout); err == nil {
		t.Error("unknown operator accepted")
	}
	badState := writeScenario(t, `{"name":"x","variables":[{"name":"p"}],
		"devices":[{"id":"d","state":{"ghost":1}}]}`)
	if err := run([]string{badState}, os.Stdout); err == nil {
		t.Error("unknown state variable accepted")
	}
}

func TestRunParallelScenario(t *testing.T) {
	const scenario = `{
		"name": "fleet",
		"badHeatAt": 80,
		"denialThreshold": 3,
		"devices": [
			{"id": "d1", "heat": 20,
			 "policies": "policy work: on tick do run category work effect heat += 15"},
			{"id": "d2", "heat": 35,
			 "policies": "policy work: on tick do run category work effect heat += 15"},
			{"id": "d3", "heat": 50,
			 "policies": "policy work: on tick do run category work effect heat += 15"},
			{"id": "d4", "heat": 20, "unguarded": true,
			 "policies": "policy work: on tick do run category work effect heat += 15"}
		],
		"events": [{"type": "tick", "target": "*", "repeat": 8}]
	}`
	path := writeScenario(t, scenario)

	// Every worker count must print the same summary: same
	// executed/denied tallies, same fleet state, same verified chain.
	summaries := make(map[string]string)
	for _, workers := range []string{"1", "2", "4"} {
		var sb strings.Builder
		if err := run([]string{"--parallelism", workers, path}, &sb); err != nil {
			t.Fatalf("run --parallelism %s: %v", workers, err)
		}
		summaries[workers] = sb.String()
	}
	if summaries["2"] != summaries["4"] {
		t.Errorf("parallel summaries diverge:\n-- 2 workers --\n%s\n-- 4 workers --\n%s",
			summaries["2"], summaries["4"])
	}
	if summaries["1"] != summaries["2"] {
		t.Errorf("one-worker summary diverges:\n-- 1 worker --\n%s\n-- 2 workers --\n%s",
			summaries["1"], summaries["2"])
	}
	out := summaries["2"]
	for _, want := range []string{
		"watchdog deactivated [d3 d4]",
		"chain verified",
		"actions denied",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunParallelRejectsChaos(t *testing.T) {
	path := writeScenario(t, `{
		"name": "x",
		"devices": [{"id": "d"}],
		"events": [{"type": "tick", "target": "d"}],
		"chaos": {"loss": 0.5}
	}`)
	err := run([]string{"--parallelism", "4", path}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("chaos + parallelism accepted (err=%v)", err)
	}
}

func TestRunBundleScenario(t *testing.T) {
	path := writeScenario(t, `{
		"name": "bundle",
		"badHeatAt": 80,
		"devices": [
			{"id": "n1", "heat": 20},
			{"id": "n2", "heat": 20}
		],
		"events": [{"type": "tick", "target": "*", "repeat": 4}],
		"bundle": {
			"loss": 0.25,
			"corruptPushes": 3,
			"revisions": [
				"policy work priority 1:\n    on tick\n    do run target fleet category work effect heat += 5\n",
				"policy work priority 1:\n    on tick\n    do run target fleet category work effect heat += 10\n"
			]
		}
	}`)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	// Both revisions converged, and the fleet acted on the distributed
	// policy (+10 per tick from revision 2): no per-device sources exist.
	for _, want := range []string{
		"bundle revision 2: 1 policies converged",
		"bundle: revision=2 converged=true",
		"corrupt-rejected=3/3",
		"bundle ledger:",
		"chain verified",
		"n1: active state={heat=60",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunBundleIncompatibilities(t *testing.T) {
	withChaos := writeScenario(t, `{"name":"x","devices":[{"id":"d"}],
		"bundle":{"revisions":[]},"chaos":{"loss":0.5}}`)
	if err := run([]string{withChaos}, os.Stdout); err == nil ||
		!strings.Contains(err.Error(), "bundle") {
		t.Errorf("bundle + chaos accepted (err=%v)", err)
	}
	withSaturation := writeScenario(t, `{"name":"x","devices":[{"id":"d"}],
		"bundle":{"revisions":[]},"saturation":{"queueCapacity":2}}`)
	if err := run([]string{withSaturation}, os.Stdout); err == nil ||
		!strings.Contains(err.Error(), "bundle") {
		t.Errorf("bundle + saturation accepted (err=%v)", err)
	}
	alone := writeScenario(t, `{"name":"x","devices":[{"id":"d"}],
		"bundle":{"revisions":[]}}`)
	if err := run([]string{"--parallelism", "2", alone}, os.Stdout); err == nil ||
		!strings.Contains(err.Error(), "bundle") {
		t.Errorf("bundle + parallelism accepted (err=%v)", err)
	}
}

func TestRunChaosScenario(t *testing.T) {
	path := writeScenario(t, `{
		"name": "chaos",
		"badHeatAt": 80,
		"denialThreshold": 3,
		"devices": [
			{"id": "guarded", "heat": 20,
			 "policies": "policy work: on tick do run category work effect heat += 3"}
		],
		"events": [{"type": "tick", "target": "*", "repeat": 12}],
		"chaos": {"loss": 0.3, "duplication": 0.2, "maxAttempts": 5,
			"crashDevice": "guarded", "crashAtStep": 4, "restartAtStep": 8}
	}`)
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "chaos crashed guarded") {
		t.Errorf("crash not reported:\n%s", out)
	}
	if !strings.Contains(out, "chaos recovered guarded from checkpoint") {
		t.Errorf("recovery not reported:\n%s", out)
	}
	if !strings.Contains(out, "chaos: delivered=") {
		t.Errorf("missing chaos summary:\n%s", out)
	}
	if !strings.Contains(out, "recoveries=1") {
		t.Errorf("recovery not counted:\n%s", out)
	}
	if !strings.Contains(out, "chain verified") {
		t.Errorf("audit not verified:\n%s", out)
	}
	if !strings.Contains(out, "guarded: active") {
		t.Errorf("recovered device not active at end:\n%s", out)
	}
}

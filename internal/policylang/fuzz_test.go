package policylang

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/policy"
)

// FuzzPolicyFixedPoint checks the DSL's print/parse fixed point on
// arbitrary source: for any text CompileSource accepts, each compiled
// policy formats to text that recompiles to exactly one policy, and
// formatting that policy again returns the same text.
func FuzzPolicyFixedPoint(f *testing.F) {
	for _, src := range scenarioSources(f) {
		f.Add(src)
	}
	// Every escape the printer emits: a quote, a backslash and a newline.
	f.Add("policy a: on e do x param k = \"q\\\"b\\\\s\\\nn\"")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 16; i++ {
		f.Add(Print(genRule(rng)))
	}
	f.Fuzz(func(t *testing.T, src string) {
		pols, err := CompileSource(src, policy.OriginHuman)
		if err != nil {
			return
		}
		for _, p := range pols {
			text, err := Format(p)
			if err != nil {
				t.Fatalf("Format(%s) of accepted source %q: %v", p.ID, src, err)
			}
			again, err := CompileSource(text, policy.OriginHuman)
			if err != nil {
				t.Fatalf("formatted policy %s does not recompile: %v\n%s", p.ID, err, text)
			}
			if len(again) != 1 {
				t.Fatalf("formatted policy %s recompiles to %d policies\n%s", p.ID, len(again), text)
			}
			text2, err := Format(again[0])
			if err != nil {
				t.Fatalf("second Format(%s): %v", p.ID, err)
			}
			if text2 != text {
				t.Fatalf("Format is not a fixed point for %s:\n%s\n---\n%s", p.ID, text, text2)
			}
		}
	})
}

// scenarioSources collects every DSL string in the repository's
// scenario files: any JSON string value that starts with "policy ".
func scenarioSources(f *testing.F) []string {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	var walk func(v any)
	walk = func(v any) {
		switch x := v.(type) {
		case string:
			if strings.HasPrefix(x, "policy ") {
				out = append(out, x)
			}
		case []any:
			for _, e := range x {
				walk(e)
			}
		case map[string]any:
			for _, e := range x {
				walk(e)
			}
		}
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		walk(v)
	}
	if len(out) == 0 {
		f.Fatal("no DSL seeds found in scenarios/")
	}
	return out
}

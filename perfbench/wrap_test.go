package main

import (
	"testing"

	"repro/internal/bundle"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/policylang"
	"repro/internal/telemetry"
)

// smuggle returns a bundle validly signed with the us root's key whose
// records all lie in the uk namespace: only the key-scope check can
// refuse it.
func smuggle(t *testing.T) bundle.Bundle {
	t.Helper()
	pols, err := policylang.CompileSource(revisionSource(1, "uk", 1), policy.OriginHuman)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := bundle.NewOrgPublisher(rolloutKeys()["us"], "us").Publish(pols)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

func TestVerifierWrapperKeepsScopeCheck(t *testing.T) {
	s := newSampler(16)
	wrapped := wrapVerifier(coalitionRing(), s)
	if _, ok := wrapped.(bundle.ScopedVerifier); !ok {
		t.Fatal("wrapping a key ring lost ScopedVerifier")
	}
	agent := bundle.NewOrgAgent(policy.NewSet(), wrapped, "us")
	applied, err := agent.Apply(smuggle(t))
	if applied || bundle.CauseOf(err) != "scope" {
		t.Fatalf("cross-scope bundle through the wrapper: applied=%v err=%v, want refused with cause scope", applied, err)
	}
	if s.calls.Load() != 1 {
		t.Fatalf("signature checks timed = %d, want 1", s.calls.Load())
	}

	// The control: a wrapper that hides ScopeOf switches the check off,
	// which is exactly what the scoped wrapper must not do.
	plain := bundle.NewOrgAgent(policy.NewSet(), timedVerifier{inner: coalitionRing(), s: s}, "us")
	if applied, err := plain.Apply(smuggle(t)); !applied || err != nil {
		t.Fatalf("control: applied=%v err=%v; the smuggled bundle should pass an unscoped verifier", applied, err)
	}
}

func TestVerifierWrapperOfPlainVerifierStaysPlain(t *testing.T) {
	if _, ok := wrapVerifier(rolloutKeys()["us"], newSampler(1)).(bundle.ScopedVerifier); ok {
		t.Fatal("a plain verifier's wrapper claims key scopes")
	}
}

func TestActuatorWrapperForwardsTracedInvoke(t *testing.T) {
	s := newSampler(16)
	var plainCalls, tracedCalls int
	traced := wrapActuator(device.ActuatorFunc{
		Label:    "a",
		Fn:       func(policy.Action) error { plainCalls++; return nil },
		TracedFn: func(policy.Action, telemetry.SpanContext) error { tracedCalls++; return nil },
	}, s)
	ta, ok := traced.(device.TracedActuator)
	if !ok {
		t.Fatal("wrapping a TracedActuator lost InvokeTraced")
	}
	if err := ta.InvokeTraced(policy.Action{Name: "a"}, telemetry.SpanContext{Trace: 1, Span: 2}); err != nil {
		t.Fatal(err)
	}
	if err := traced.Invoke(policy.Action{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if plainCalls != 1 || tracedCalls != 1 || s.calls.Load() != 2 || traced.Name() != "a" {
		t.Fatalf("plain=%d traced=%d timed=%d name=%q", plainCalls, tracedCalls, s.calls.Load(), traced.Name())
	}
	if _, ok := wrapActuator(device.NopActuator{}, s).(device.TracedActuator); ok {
		t.Fatal("a plain actuator's wrapper claims InvokeTraced")
	}
}

func TestSignerWrapperSignsIdentically(t *testing.T) {
	key := rolloutKeys()["us"]
	w := timedSigner{inner: key, s: newSampler(4)}
	w.s.on.Store(true)
	if w.KeyID() != key.KeyID() || w.Sign([]byte("x")) != key.Sign([]byte("x")) {
		t.Fatal("signer wrapper changed the signature")
	}
}

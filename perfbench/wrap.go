package main

import (
	"time"

	"repro/internal/bundle"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// The wrappers below time the interfaces the program accepts from its
// callers. Each forwards every method of what it wraps — including the
// optional interfaces the program probes for with type assertions — so
// a traced run behaves exactly like an untraced one.

// timedGuard times every Check of a guard.
type timedGuard struct {
	inner guard.Guard
	s     *sampler
}

func (g timedGuard) Name() string { return g.inner.Name() }

func (g timedGuard) Check(ctx guard.ActionContext) guard.Verdict {
	if !g.s.on.Load() {
		return g.inner.Check(ctx)
	}
	start := time.Now()
	v := g.inner.Check(ctx)
	g.s.record(time.Since(start))
	return v
}

// timedActuator times every Invoke of an actuator.
type timedActuator struct {
	inner device.Actuator
	s     *sampler
}

func (a timedActuator) Name() string { return a.inner.Name() }

func (a timedActuator) Invoke(act policy.Action) error {
	if !a.s.on.Load() {
		return a.inner.Invoke(act)
	}
	start := time.Now()
	err := a.inner.Invoke(act)
	a.s.record(time.Since(start))
	return err
}

// timedTracedActuator is timedActuator for an actuator that carries
// the trace context across actuation.
type timedTracedActuator struct {
	timedActuator
	traced device.TracedActuator
}

func (a timedTracedActuator) InvokeTraced(act policy.Action, sc telemetry.SpanContext) error {
	if !a.s.on.Load() {
		return a.traced.InvokeTraced(act, sc)
	}
	start := time.Now()
	err := a.traced.InvokeTraced(act, sc)
	a.s.record(time.Since(start))
	return err
}

// wrapActuator returns a timing wrapper that is a TracedActuator
// exactly when the wrapped actuator is one.
func wrapActuator(a device.Actuator, s *sampler) device.Actuator {
	base := timedActuator{inner: a, s: s}
	if ta, ok := a.(device.TracedActuator); ok {
		return timedTracedActuator{timedActuator: base, traced: ta}
	}
	return base
}

// timedSigner times every bundle signature.
type timedSigner struct {
	inner bundle.Signer
	s     *sampler
}

func (g timedSigner) KeyID() string { return g.inner.KeyID() }

func (g timedSigner) Sign(data []byte) string {
	if !g.s.on.Load() {
		return g.inner.Sign(data)
	}
	start := time.Now()
	sig := g.inner.Sign(data)
	g.s.record(time.Since(start))
	return sig
}

// timedVerifier times every signature check.
type timedVerifier struct {
	inner bundle.Verifier
	s     *sampler
}

func (v timedVerifier) Verify(keyID string, data []byte, sigHex string) bool {
	if !v.s.on.Load() {
		return v.inner.Verify(keyID, data, sigHex)
	}
	start := time.Now()
	ok := v.inner.Verify(keyID, data, sigHex)
	v.s.record(time.Since(start))
	return ok
}

// timedScopedVerifier is timedVerifier for a key ring: forwarding
// ScopeOf keeps the agent's key-scope check in force, which a plain
// Verifier wrapper would silently switch off.
type timedScopedVerifier struct {
	timedVerifier
	scoped bundle.ScopedVerifier
}

func (v timedScopedVerifier) ScopeOf(keyID string) (bundle.Scope, bool) {
	return v.scoped.ScopeOf(keyID)
}

// wrapVerifier returns a timing wrapper that is a ScopedVerifier
// exactly when the wrapped verifier is one.
func wrapVerifier(v bundle.Verifier, s *sampler) bundle.Verifier {
	base := timedVerifier{inner: v, s: s}
	if sv, ok := v.(bundle.ScopedVerifier); ok {
		return timedScopedVerifier{timedVerifier: base, scoped: sv}
	}
	return base
}

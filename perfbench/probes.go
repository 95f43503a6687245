package main

import (
	"time"

	"repro/internal/audit"
	"repro/internal/bundle"
	"repro/internal/device"
	"repro/internal/policy"
	"repro/internal/policylang"
)

// Micro-probes time one layer's public function on inputs captured
// from the run. Each repeats its call until probeTime has passed and
// reports the mean cost of one call.
const probeTime = 200 * time.Millisecond

// repeatFor calls fn in batches until probeTime has passed and returns
// the mean duration of one call.
func repeatFor(batch int, fn func()) time.Duration {
	start := time.Now()
	calls := 0
	for time.Since(start) < probeTime {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	return time.Since(start) / time.Duration(calls)
}

// probeAppend replays the run's last journal entries into a fresh
// log: the cost of one hash-chained append, in ns.
func probeAppend(log *audit.Log) float64 {
	entries, _ := log.EntriesSince(log.Len() - 1024)
	if len(entries) == 0 {
		return 0
	}
	fresh := audit.New()
	i := 0
	d := repeatFor(len(entries), func() {
		e := entries[i%len(entries)]
		fresh.Append(e.Kind, e.Actor, e.Detail, e.Context)
		i++
	})
	return float64(d.Nanoseconds())
}

// probeEvaluate evaluates devices' residual snapshots on their current
// state under the MAPE repair event: the decision plane's cost per
// alert, in ns.
func probeEvaluate(devices []*device.Device, now time.Time) float64 {
	const sample = 256
	type input struct {
		res *policy.Residual
		env policy.Env
	}
	var inputs []input
	for i := 0; i < len(devices) && len(inputs) < sample; i += max(1, len(devices)/sample) {
		d := devices[i]
		inputs = append(inputs, input{res: d.Residual(), env: policy.Env{
			Event:  policy.Event{Type: device.DefaultRepairEvent, Source: d.ID(), Time: now},
			State:  d.CurrentState(),
			Static: d.Profile(),
		}})
	}
	if len(inputs) == 0 {
		return 0
	}
	var dec policy.Decision
	i := 0
	d := repeatFor(len(inputs), func() {
		in := inputs[i%len(inputs)]
		in.res.EvaluateInto(in.env, &dec)
		i++
	})
	return float64(d.Nanoseconds())
}

// probeDecode decodes captured wire bundles, in µs per bundle.
func probeDecode(wire [][]byte) float64 {
	if len(wire) == 0 {
		return 0
	}
	i := 0
	d := repeatFor(len(wire), func() {
		_, _ = bundle.Decode(wire[i%len(wire)])
		i++
	})
	return float64(d) / float64(time.Microsecond)
}

// probeCompile compiles the records the captured bundles carry, in µs
// per record: what each activating device pays to compile policy text.
func probeCompile(records []bundle.Record) float64 {
	if len(records) == 0 {
		return 0
	}
	i := 0
	d := repeatFor(len(records), func() {
		_, _ = policylang.CompileSource(records[i%len(records)].Source, policy.OriginShared)
		i++
	})
	return float64(d) / float64(time.Microsecond)
}

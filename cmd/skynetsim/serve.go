// The serve subcommand runs a scenario's fleet as a long-lived
// control plane instead of a batch run: devices, schema and policies
// come from the scenario file, but no scripted event stream plays.
// Commands arrive over POST /v1/commands, each decision is traceable
// via GET /v1/decisions/{traceID}, the hash-chained journal streams
// from GET /v1/audit/tail, and GET /v1/fleet reports live per-device
// state.
//
// Usage:
//
//	skynetsim serve [flags] scenario.json
//
// Flags:
//
//	--addr addr            listen address (default 127.0.0.1:8080)
//	--admission-rate r     per-device command admission rate in
//	                       tokens/second (0 = ungated)
//	--admission-burst b    admission token-bucket burst (default
//	                       max(rate, 1))
//	--sweep-every d        run a watchdog sweep at this wall-clock
//	                       period (0 = no background sweeps)
//
// The scenario's events, chaos, saturation and bundle blocks are
// ignored in serve mode — the live command plane replaces them.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// serveShutdownGrace bounds how long Shutdown waits for in-flight
// requests (and open audit-tail streams) to drain.
const serveShutdownGrace = 5 * time.Second

func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("skynetsim serve", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8080", "control-plane listen address")
	admissionRate := fs.Float64("admission-rate", 0, "per-device command admission rate in tokens/second (0 = ungated)")
	admissionBurst := fs.Float64("admission-burst", 0, "admission token-bucket burst (default max(rate, 1))")
	sweepEvery := fs.Duration("sweep-every", 0, "watchdog sweep period (0 = no background sweeps)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: skynetsim serve [flags] <scenario.json>")
	}
	sc, err := loadScenario(fs.Arg(0))
	if err != nil {
		return err
	}
	for block, present := range map[string]bool{
		"events":     len(sc.Events) > 0,
		"chaos":      sc.Chaos != nil,
		"saturation": sc.Saturation != nil,
		"bundle":     sc.Bundle != nil,
	} {
		if present {
			fmt.Fprintf(out, "serve: ignoring scenario %s block (live command plane replaces it)\n", block)
		}
	}

	metrics := sim.NewMetrics()
	registry := metrics.Registry()
	tracer := telemetry.NewTracer(telemetry.WithTracerMetrics(registry))
	log := audit.New()

	schema, classifier, err := buildStateModel(sc)
	if err != nil {
		return err
	}
	collective, err := core.New(core.Config{
		Name:            sc.Name,
		Audit:           log,
		KillSecret:      []byte("skynetsim-" + sc.Name),
		Classifier:      classifier,
		DenialThreshold: sc.DenialThreshold,
		Telemetry:       registry,
		Tracer:          tracer,
	})
	if err != nil {
		return err
	}
	guardFor := func(spec deviceSpec) guard.Guard {
		if spec.Unguarded {
			return nil
		}
		return core.StandardPipeline(core.SafetyConfig{
			Audit:      log,
			Classifier: classifier,
			Telemetry:  registry,
			Tracer:     tracer,
		})
	}
	if err := buildFleet(sc, schema, collective, guardFor, log, registry, tracer); err != nil {
		return err
	}

	var intake *admission.Controller
	if *admissionRate > 0 {
		intake, err = admission.New(admission.Config{
			Rate:    *admissionRate,
			Burst:   *admissionBurst,
			Metrics: registry,
		})
		if err != nil {
			return err
		}
	}

	srv, err := server.New(server.Config{
		Collective: collective,
		Audit:      log,
		Registry:   registry,
		Tracer:     tracer,
		Admission:  intake,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(*addr); err != nil {
		return err
	}
	base := "http://" + srv.Addr()
	fmt.Fprintf(out, "fleet %q: %d devices under policy control\n", collective.Name(), len(collective.Devices()))
	fmt.Fprintf(out, "control plane on %s\n", base)
	fmt.Fprintf(out, "  POST %s/v1/commands\n", base)
	fmt.Fprintf(out, "  GET  %s/v1/decisions/{traceID}\n", base)
	fmt.Fprintf(out, "  GET  %s/v1/audit/tail?follow=true\n", base)
	fmt.Fprintf(out, "  GET  %s/v1/fleet\n", base)
	fmt.Fprintf(out, "  GET  %s/metrics  /traces  /healthz\n", base)

	// Background watchdog sweeps keep bad-state deactivation live even
	// when no commands arrive.
	sweepDone := make(chan struct{})
	if *sweepEvery > 0 {
		go func() {
			ticker := time.NewTicker(*sweepEvery)
			defer ticker.Stop()
			for {
				select {
				case <-sweepDone:
					return
				case <-ticker.C:
					deactivated, failed := collective.SweepWatchdog()
					for _, id := range deactivated {
						fmt.Fprintf(out, "watchdog: deactivated %s\n", id)
					}
					for _, id := range failed {
						fmt.Fprintf(out, "watchdog: deactivation FAILED for %s\n", id)
					}
				}
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	signal.Stop(stop)
	close(sweepDone)
	fmt.Fprintf(out, "received %s, draining (up to %s)\n", sig, serveShutdownGrace)

	ctx, cancel := context.WithTimeout(context.Background(), serveShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintf(out, "drained; %d audit entries recorded\n", log.Len())
	return nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

// The §4.2 external-load scenario, shaped like experiments.ExtLoad: 20
// single-core nodes, 5 s tasks offered at 0.8/s to a farm of 5 workers
// (capacity 1.0/s), contract throughput >= 0.6, manager period 2 s. At a
// fixed modelled time plus a seeded phase within the manager period, 75%
// external load lands on every node running a worker, which drops the farm
// below the contract until the manager has added enough workers.
const (
	extScale    = 100
	extNodes    = 20
	extTasks    = 90
	extWork     = 5 * time.Second
	extInterval = 1250 * time.Millisecond
	extWorkers  = 5
	extMax      = 16
	extContract = 0.6
	extPeriod   = 2 * time.Second
	extSample   = time.Second
	extLoad     = 0.75
	// extInject is the modelled time of injection before the phase is
	// added: the 10 s warm-up is over and the sensors have a full window.
	extInject = 40 * time.Second
)

// reaction is one injection's violation→actuation→restore timeline in
// modelled seconds after the injection.
type reaction struct {
	Detect, Act, Restore float64
	PeakWorkers          int
	Lows, Adds           int // AM_F contrLow and addWorker events after injection
}

// extractReaction reads one reaction off an app's trace log and its
// throughput and parallelism-degree series. Wall-clock intervals are
// converted to modelled seconds by scale.
func extractReaction(log *trace.Log, tp, workers *metrics.Series, injected time.Time, scale, lo float64) (reaction, error) {
	var r reaction
	modelled := func(t time.Time) float64 { return t.Sub(injected).Seconds() * scale }
	var low, add time.Time
	for _, e := range log.BySource("AM_F") {
		if !e.T.After(injected) {
			continue
		}
		switch e.Kind {
		case trace.ContrLow:
			r.Lows++
			if low.IsZero() {
				low = e.T
			}
		case trace.AddWorker:
			r.Adds++
			if add.IsZero() && !low.IsZero() {
				add = e.T
			}
		}
	}
	if low.IsZero() {
		return r, errors.New("no contrLow after injection")
	}
	if add.IsZero() {
		return r, errors.New("no addWorker after the violation")
	}
	r.Detect, r.Act = modelled(low), modelled(add)
	for _, p := range tp.Points() {
		if p.T.After(add) && p.V >= lo {
			r.Restore = modelled(p.T)
			break
		}
	}
	if r.Restore == 0 {
		return r, errors.New("throughput never restored after the actuation")
	}
	for _, p := range workers.Points() {
		if p.T.After(injected) && int(p.V) > r.PeakWorkers {
			r.PeakWorkers = int(p.V)
		}
	}
	return r, nil
}

// extRun is the outcome of one scenario run.
type extRun struct {
	reaction
	build       time.Duration // core.NewFarmApp to a runnable app
	tasks       int
	completed   int
	actFailures uint64
	actFailure  string // the first failed actuation, as the manager reported it
	// endRefusals are the actuations the farm refused because its input
	// had ended between the manager's sense and act phases: the farm's
	// correct answer at the end of the stream, not a failed reaction.
	endRefusals uint64
	leaks       uint64

	// traced only
	cycles    uint64
	inst      manager.Instruments
	actuator  *metrics.Histogram
	sensorLag float64 // modelled s until DepartureRate < contract; NaN if never seen
	events    int
	evicted   uint64
}

// runExtLoad builds and runs one scenario with the injection at extInject
// + phase (modelled). With traced set it attaches the actuator histogram
// and polls the departure-rate sensor; the manager phase histograms are
// always collected by the program.
func runExtLoad(ctx context.Context, phase time.Duration, traced bool, rec *recorder, parent uint64) (extRun, error) {
	var out extRun
	trusted := grid.Domain{Name: "cluster.local", Trusted: true}
	nodes := make([]*grid.Node, extNodes)
	for i := range nodes {
		nodes[i] = grid.NewNode(fmt.Sprintf("n%02d", i), trusted, 1, 1.0)
	}
	env := skel.Env{Clock: simclock.NewReal(), TimeScale: extScale}
	log := trace.NewLog()

	sp := rec.begin(parent, "core", "core.NewFarmApp")
	start := time.Now()
	app, err := core.NewFarmApp(core.FarmAppConfig{
		Name: "extload",
		Env:  env,
		Platform: &grid.Platform{
			Domains: []grid.Domain{trusted},
			Network: grid.NewNetwork(),
			RM:      grid.NewResourceManager(nodes...),
		},
		Log:            log,
		Tasks:          extTasks,
		TaskWork:       extWork,
		SourceInterval: extInterval,
		InitialWorkers: extWorkers,
		Contract:       contract.MinThroughput(extContract),
		Limits:         manager.FarmLimits{MaxWorkers: extMax},
		Period:         extPeriod,
		SamplePeriod:   extSample,
	})
	out.build = time.Since(start)
	rec.end(sp)
	if err != nil {
		return out, err
	}
	out.tasks = extTasks
	if traced {
		out.actuator = metrics.NewLatencyHistogram()
		app.FarmABC.SetActuatorHistogram(out.actuator)
	}

	var injected time.Time
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-stop:
			return
		case <-time.After(time.Duration(float64(extInject+phase) / extScale)):
		}
		isp := rec.begin(parent, "grid", "grid.SetExternalLoad")
		for _, w := range app.FarmABC.Workers() {
			w.Node.SetExternalLoad(extLoad)
		}
		injected = time.Now()
		rec.end(isp)
		app.Log.Record(injected, "ENV", trace.Kind("extLoad"), "external load on every worker node")
		out.sensorLag = math.NaN()
		if !traced {
			return
		}
		// The sensor lag: how long the departure-rate sensor the manager
		// reads takes to fall below the contract after the injection.
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if app.FarmABC.Stats().DepartureRate < extContract {
					out.sensorLag = time.Since(injected).Seconds() * extScale
					return
				}
			}
		}
	}()

	sp = rec.begin(parent, "core", "core.App.RunContext")
	res, err := app.RunContext(ctx)
	rec.end(sp)
	close(stop)
	wg.Wait()
	if err != nil {
		return out, err
	}
	if injected.IsZero() {
		return out, errors.New("stream ended before the injection")
	}
	out.completed = res.Completed
	out.actFailures = app.RootManager.ActuatorFailures()
	for _, e := range log.BySource("AM_F") {
		switch {
		case e.Kind != trace.RaiseViol || !strings.Contains(e.Detail, "_failed"):
		case strings.Contains(e.Detail, skel.ErrStreamEnded.Error()):
			out.endRefusals++
		case out.actFailure == "":
			out.actFailure = fmt.Sprintf("%q %+.1f s after the injection", e.Detail, e.T.Sub(injected).Seconds()*extScale)
		}
	}
	if app.Auditor != nil {
		out.leaks = app.Auditor.Leaks()
	}
	out.cycles = app.RootManager.CycleSeq()
	out.inst = app.RootManager.Instruments()
	out.events = log.Len()
	out.evicted = log.Evicted()
	out.reaction, err = extractReaction(res.Log, res.Throughput, res.Workers, injected, extScale, extContract)
	return out, err
}

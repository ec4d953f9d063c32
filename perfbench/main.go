// Command perfbench is the repository's benchmark of the behavioural
// skeleton farm. One run drives two legs of the same library from outside:
//
//   - the data leg: a 2-worker farm with AES-GCM bindings, loopback or over
//     framed TCP, fed a closed burst and then open loops at 20k and 50k
//     tasks/s, with every result checked by an output oracle;
//   - the management leg: the §4.2 external-load scenario, where a load
//     injection violates the throughput contract and the farm manager must
//     add workers until the contract holds again.
//
// Every run reports both legs because each workload must report every
// end-to-end metric; the workload picks the data leg's transport. With
// -trace 0 it prints the end-to-end metrics of untraced runs, with -trace 1
// the per-layer metrics of a traced run plus the tracing overhead. The last
// line of standard output is one JSON object.
//
// It runs on Linux only (the generator paces itself with prctl and
// nanosleep). From the root of the repository:
//
//	bash perfbench/run.sh --workload loopback-single|tcp-batch64 --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// workloads maps each workload name to its data leg's farm.
var workloads = map[string]dataPlane{
	// The per-task hot path (route, seal, queue, open, collect), no wire.
	"loopback-single": {tcp: false, batch: 0},
	// Batch envelopes, epoch reseal and the session round trip over TCP.
	"tcp-batch64": {tcp: true, batch: 64},
}

const (
	// A round is short and a run holds many, so that the median round of
	// a run misses the host's bursts of contention (see endToEnd).
	satTasks  = 100000
	openPhase = 500 * time.Millisecond
	roundEst  = 1400 * time.Millisecond
	// injections of the management leg per run, and how many scenarios run
	// at once (each is mostly asleep on its scaled clock).
	injections = 32
	injectConc = 8
	mgmtEst    = 7 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Tails are the end-to-end p99 latencies. They are printed with the
	// metrics but left out of the result: on a shared 2-core host they
	// move by more than a quarter between runs of the same code.
	Tails map[string]metric `json:"-"`
}

func main() {
	workload := flag.String("workload", "", "loopback-single or tcp-batch64")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement budget of one run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the span JSONL of traced runs")
	flag.Parse()
	dp, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	// One P beyond the cores: under load the farm's goroutines run without
	// blocking, and with every P busy the generator, waking from its sleep,
	// would wait up to a 10 ms preemption slice for one, so the offered
	// load would follow the farm instead of the schedule.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	b := &bench{name: *workload, dp: dp, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, outDir: *outDir}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b.printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type bench struct {
	name    string
	dp      dataPlane
	seed    uint64
	seconds int
	traced  bool
	outDir  string

	attempted, failed uint64
	notes             []string // failure details, printed with the table
	leaked            int      // goroutines left over after every teardown
	endRefusals       uint64   // actuations refused because the stream had ended
}

func (b *bench) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	b.failed += n
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// rounds is how many data-leg rounds fit the budget beside the management
// leg; fixed by -seconds, so two commits measure the same amount of work.
func (b *bench) rounds() int {
	n := int((time.Duration(b.seconds)*time.Second - mgmtEst) / roundEst)
	return max(n, 3)
}

// roundOut is one data-leg round's end-to-end figures.
type roundOut struct {
	setup                      time.Duration
	sat                        float64
	loP50, loP99, hiP50, hiP99 float64
	cpuLo, cpuHi, allocHi      float64
	lateHi                     float64
}

// checkPhase adds a phase's oracle outcome to the run's totals.
func (b *bench) checkPhase(name string, r *rig, p phaseResult) {
	b.attempted += p.n
	b.fail(p.lost, "%s: %d of %d tasks lost", name, p.lost, p.n)
	b.fail(p.bad, "%s: %d duplicate or corrupt results", name, p.bad)
	if s := r.strays.Swap(0); s > 0 {
		b.fail(s, "%s: %d results outside their phase", name, s)
	}
}

func (b *bench) run() (*result, error) {
	goroutines0 := runtime.NumGoroutine()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var rec *recorder
	if b.traced {
		rec = newRecorder(fmt.Sprintf("%s-seed%d-%d", b.name, b.seed, time.Now().UnixNano()))
	}
	root := rec.begin(0, "bench", "run")
	heap := startHeapSampler(b.traced)

	var rounds []roundOut
	var tr tracedOut
	// A traced run pairs each traced round with an untraced one on an
	// identical farm, run before and after it in turn; their CPU per task
	// at the high rate gives the tracing overhead.
	var baseCPU []float64
	base := func() error {
		ro, err := b.dataRound(false, nil, 0, nil)
		baseCPU = append(baseCPU, ro.cpuHi)
		return err
	}
	for i := 0; i < b.rounds(); i++ {
		if b.traced && i%2 == 0 {
			if err := base(); err != nil {
				return nil, err
			}
		}
		rsp := rec.begin(root, "bench", fmt.Sprintf("round%d", i))
		ro, err := b.dataRound(b.traced, rec, rsp, &tr)
		rec.end(rsp)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, ro)
		if b.traced && i%2 == 1 {
			if err := base(); err != nil {
				return nil, err
			}
		}
	}
	mg, err := b.mgmtLeg(rec, root)
	if err != nil {
		return nil, err
	}
	rec.end(root)
	heapPeak := heap.stop()
	b.leaked = settleGoroutines(goroutines0)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	res := &result{Attempted: b.attempted, Failed: b.failed, Correct: b.failed == 0}
	if !b.traced {
		res.Metrics, res.Tails = endToEnd(rounds, mg)
		return res, nil
	}
	res.Metrics = b.perLayer(&tr, baseCPU, mg, heapPeak, ms1.NumGC-ms0.NumGC)
	self := selfTimes(rec.snapshot())
	for _, layer := range []string{"bench", "skel", "security", "wire", "core", "grid"} {
		res.Metrics["self."+layer+"_ms"] = metric{float64(self[layer]) / 1e6, "ms"}
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(b.outDir, rec.run+".jsonl")
	if err := rec.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d benchmark-side spans written to %s\n", len(rec.snapshot()), path)
	return res, nil
}

// endToEnd reports the run's end-to-end figures. Each data-leg figure is
// the median over the run's rounds: other tenants of a shared host take
// CPU in bursts, lengthening every wall-clock figure and inflating CPU
// time per task in the rounds they overlap, and the median ignores bursts
// that cover fewer than half the rounds. The management times are means
// over the injections: detection depends on where in the manager period
// the load lands, and the injections cover the period evenly, so a median
// would flip between the two sides of it.
func endToEnd(rounds []roundOut, mg *mgmtOut) (gated, tails map[string]metric) {
	over := func(f func(roundOut) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	tails = map[string]metric{
		"lat_lo_p99_us": {over(func(r roundOut) float64 { return r.loP99 }), "us"},
		"lat_hi_p99_us": {over(func(r roundOut) float64 { return r.hiP99 }), "us"},
	}
	return map[string]metric{
		"sat_tasks_per_s":    {over(func(r roundOut) float64 { return r.sat }), "1/s"},
		"lat_lo_p50_us":      {over(func(r roundOut) float64 { return r.loP50 }), "us"},
		"lat_hi_p50_us":      {over(func(r roundOut) float64 { return r.hiP50 }), "us"},
		"cpu_lo_us_per_task": {over(func(r roundOut) float64 { return r.cpuLo }), "us"},
		"cpu_hi_us_per_task": {over(func(r roundOut) float64 { return r.cpuHi }), "us"},
		"alloc_b_per_task":   {over(func(r roundOut) float64 { return r.allocHi }), "B"},
		// Set-up of the workload's farm plus the build of the scenario app,
		// each the median of the run's set-ups.
		"setup_s":        {over(func(r roundOut) float64 { return r.setup.Seconds() }) + median(mg.builds), "s"},
		"mgmt_detect_s":  {mean(mg.detect), "s"},
		"mgmt_act_s":     {mean(mg.act), "s"},
		"mgmt_restore_s": {median(mg.restore), "s"},
		// A mean too: the peak is a small integer that a median would pin.
		"mgmt_peak_workers": {mean(mg.peak), "count"},
	}, tails
}

// perLayer reports the traced run's per-layer figures.
func (b *bench) perLayer(tr *tracedOut, baseCPU []float64, mg *mgmtOut, heapPeak uint64, gcs uint32) map[string]metric {
	m := map[string]metric{}
	us := func(name string, v float64) { m[name] = metric{finite(v), "us"} }
	count := func(name string, v float64) { m[name] = metric{finite(v), "count"} }
	_, sendP99, _ := percentiles(tr.blocks, 0.99)
	us("skel.send_block_p99_us", sendP99)
	for _, st := range []struct {
		name  string
		stage int
	}{
		{"skel.enqueue_p50_us", telemetry.StageEnqueue},
		{"skel.route_p50_us", telemetry.StageRoute},
		{"skel.seal_p50_us", telemetry.StageSeal},
		{"skel.queue_wait_p50_us", telemetry.StageQueueWait},
		{"skel.result_p50_us", telemetry.StageResult},
		{"security.reseal_p50_us", telemetry.StageReseal},
	} {
		us(st.name, median(tr.stage[st.stage]))
	}
	us("skel.dispatch_p50_us", tr.dispatch.Quantile(0.5)*1e6)
	_, statsP99, _ := percentiles(tr.stats, tailQuantile(len(tr.stats)))
	us("skel.stats_call_p99_us", statsP99)
	count("skel.tasks_per_envelope", tr.tasks/math.Max(tr.envelopes, 1))
	us("security.seal_open_us", sealOpenUs(b.seed))
	// No span crosses a wire on loopback: the wire figures read zero.
	var rttP50, rttP99 float64
	if len(tr.rtt) > 0 {
		rttP50, rttP99, _ = percentiles(tr.rtt, tailQuantile(len(tr.rtt)))
	}
	us("wire.rtt_p50_us", rttP50)
	us("wire.rtt_p99_us", rttP99)
	us("wire.remote_exec_p50_us", median(tr.exec))
	count("wire.frames_per_task", tr.frames/math.Max(tr.tasks, 1))
	perRound := func(v uint64) float64 { return float64(v) / float64(tr.rounds) }
	count("wire.dials", perRound(tr.dials))
	count("wire.rekeys", perRound(tr.rekeys))
	count("telemetry.spans", perRound(tr.spans))
	count("telemetry.spans_dropped", perRound(tr.dropped))
	base := median(baseCPU)
	m["telemetry.overhead_frac"] = metric{finite((median(tr.cpuHi) - base) / base), "ratio"}
	count("manager.cycles", median(mg.cycles))
	for _, ph := range []struct {
		name string
		h    func(e extRun) *metrics.Histogram
	}{
		{"sense", func(e extRun) *metrics.Histogram { return e.inst.Sense }},
		{"analyze", func(e extRun) *metrics.Histogram { return e.inst.Analyze }},
		{"plan", func(e extRun) *metrics.Histogram { return e.inst.Plan }},
		{"act", func(e extRun) *metrics.Histogram { return e.inst.Act }},
		{"wake", func(e extRun) *metrics.Histogram { return e.inst.Wake }},
	} {
		s := mergeHist(mg.runs, ph.h)
		us("manager."+ph.name+"_p50_us", s.Quantile(0.5)*1e6)
		us("manager."+ph.name+"_p99_us", s.Quantile(0.99)*1e6)
	}
	m["manager.adds_per_violation"] = metric{finite(mg.adds / math.Max(mg.lows, 1)), "ratio"}
	act := mergeHist(mg.runs, func(e extRun) *metrics.Histogram { return e.actuator })
	us("abc.actuate_p50_us", act.Quantile(0.5)*1e6)
	us("abc.actuate_p99_us", act.Quantile(0.99)*1e6)
	m["metrics.sensor_lag_s"] = metric{finite(median(mg.lag)), "s"}
	count("manager.refused_after_end", float64(b.endRefusals))
	count("trace.events", median(mg.events))
	count("trace.evicted", mg.evicted)
	count("go.gc_cycles", float64(gcs))
	m["go.heap_peak_mb"] = metric{float64(heapPeak) / (1 << 20), "MB"}
	count("go.goroutines_leaked", float64(b.leaked))
	us("bench.gen_late_p99_us", median(tr.lateP99))
	return m
}

// tracedOut accumulates the traced rounds' per-layer observations.
type tracedOut struct {
	blocks, stats, lateP99, cpuHi []float64
	stage                         [telemetry.NumStages][]float64
	rtt, exec                     []float64
	dispatch                      metrics.HistogramSnapshot
	tasks, envelopes, frames      float64
	rounds                        int
	dials, rekeys                 uint64
	spans, dropped                uint64
}

// dataRound sets up one farm, runs the closed burst and the two open loops
// on it and tears it down.
func (b *bench) dataRound(traced bool, rec *recorder, parent uint64, tr *tracedOut) (roundOut, error) {
	var ro roundOut
	ssp := rec.begin(parent, "bench", "setup")
	r, setup, err := setupRig(b.dp, b.seed, traced, rec, ssp)
	rec.end(ssp)
	if err != nil {
		return ro, fmt.Errorf("set-up: %w", err)
	}
	ro.setup = setup
	var snap0 wire.StatsSnapshot
	if r.factory != nil {
		snap0 = r.factory.Snapshot()
	}

	runtime.GC()
	sat := r.runPhase(satTasks, 0, traced, rec, parent, "closed")
	b.checkPhase("closed burst", r, sat)
	ro.sat = float64(sat.n-sat.lost) / sat.wall.Seconds()

	runtime.GC()
	lo := r.runPhase(openTasks(rateLo), rateLo, traced, rec, parent, "open-lo")
	b.checkPhase("open loop at the low rate", r, lo)
	ro.loP50, ro.loP99, err = percentiles(lo.lat, 0.99)
	if err != nil {
		r.close()
		return ro, fmt.Errorf("low-rate latency: %w", err)
	}
	ro.cpuLo = perTaskUs(lo.cpu, lo.n-lo.lost)

	runtime.GC()
	var pub0 uint64
	if r.tracer != nil {
		pub0 = r.tracer.Ring().Published()
	}
	snapHi := snap0
	if r.factory != nil {
		snapHi = r.factory.Snapshot()
	}
	hi := r.runPhase(openTasks(rateHi), rateHi, traced, rec, parent, "open-hi")
	b.checkPhase("open loop at the high rate", r, hi)
	ro.hiP50, ro.hiP99, err = percentiles(hi.lat, 0.99)
	if err != nil {
		r.close()
		return ro, fmt.Errorf("high-rate latency: %w", err)
	}
	done := float64(hi.n - hi.lost)
	ro.cpuHi = perTaskUs(hi.cpu, hi.n-hi.lost)
	ro.allocHi = float64(hi.alloc) / done
	_, ro.lateHi, _ = percentiles(hi.late, 0.99)

	if traced {
		tr.rounds++
		tr.dials += snap0.Dials
		tr.rekeys += snap0.Rekeys
		tr.cpuHi = append(tr.cpuHi, ro.cpuHi)
		tr.blocks = append(tr.blocks, hi.blocks...)
		tr.stats = append(tr.stats, hi.statsUs...)
		tr.lateP99 = append(tr.lateP99, ro.lateHi)
		tr.tasks += done
		ring := r.tracer.Ring()
		tr.spans += ring.Published()
		tr.dropped += ring.Dropped()
		hiSpans := ring.Last(int(min(ring.Published()-pub0, traceRing)))
		for _, sp := range hiSpans {
			if sp.Parent != 0 {
				continue // batch members repeat their envelope's stages
			}
			for st, d := range sp.Stages {
				tr.stage[st] = append(tr.stage[st], float64(d)/1e3)
			}
			if sp.Remote {
				tr.rtt = append(tr.rtt, float64(sp.Stages[telemetry.StageWire]+sp.Stages[telemetry.StageExec])/1e3)
				tr.exec = append(tr.exec, float64(sp.Stages[telemetry.StageExec])/1e3)
			}
		}
		if r.factory != nil {
			s := r.factory.Snapshot()
			tr.envelopes += float64(s.Execs - snapHi.Execs)
			tr.frames += float64(s.FramesOut - snapHi.FramesOut)
		} else {
			// Loopback envelopes are not counted by the program; the
			// sampled envelope spans give the batch sizes.
			tr.envelopes += done * sampledEnvelopesPerTask(hiSpans)
		}
		d := r.ins.Dispatch.Snapshot()
		if tr.dispatch.Count == 0 {
			tr.dispatch = d
		} else if merged, err := metrics.Merge(tr.dispatch, d); err == nil {
			tr.dispatch = merged
		}
	}
	csp := rec.begin(parent, "bench", "teardown")
	r.close()
	rec.end(csp)
	return ro, nil
}

// sampledEnvelopesPerTask estimates envelopes per task from the envelope
// spans of a phase: a single-task span is one envelope per task, a batch
// span of k members one envelope per k tasks.
func sampledEnvelopesPerTask(spans []telemetry.Span) float64 {
	var envs, tasks float64
	for _, sp := range spans {
		if sp.Parent != 0 {
			continue
		}
		envs++
		tasks += float64(max(sp.Batch, 1))
	}
	if tasks == 0 {
		return 0
	}
	return envs / tasks
}

// mgmtOut gathers the management leg's injections.
type mgmtOut struct {
	runs                 []extRun
	detect, act, restore []float64
	peak, builds, lag    []float64
	cycles, events       []float64
	adds, lows, evicted  float64
}

// mgmtLeg runs the injections with phases spread evenly over one manager
// period from a seeded offset, so every run samples the whole period.
func (b *bench) mgmtLeg(rec *recorder, parent uint64) (*mgmtOut, error) {
	lsp := rec.begin(parent, "bench", "mape-extload")
	defer rec.end(lsp)
	offset := rand.New(rand.NewSource(int64(b.seed))).Float64()
	out := &mgmtOut{}
	runs := make([]extRun, injections)
	errs := make([]error, injections)
	sem := make(chan struct{}, injectConc)
	var wg sync.WaitGroup
	for i := 0; i < injections; i++ {
		frac := math.Mod(offset+float64(i)/injections, 1)
		phase := time.Duration(frac * float64(extPeriod))
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			runs[i], errs[i] = runExtLoad(context.Background(), phase, b.traced, rec, lsp)
		}(i)
	}
	wg.Wait()
	for i, r := range runs {
		b.attempted += uint64(r.tasks) + 1
		if errs[i] != nil {
			b.fail(1, "mape-extload injection %d: %v", i, errs[i])
			continue
		}
		b.fail(uint64(r.tasks-r.completed), "mape-extload injection %d: %d of %d stream tasks unfinished", i, r.tasks-r.completed, r.tasks)
		b.fail(r.leaks, "mape-extload injection %d: %d security leaks", i, r.leaks)
		b.fail(r.actFailures-r.endRefusals, "mape-extload injection %d: %d actuator failures, first %s", i, r.actFailures-r.endRefusals, r.actFailure)
		b.endRefusals += r.endRefusals
		out.runs = append(out.runs, r)
		out.detect = append(out.detect, r.Detect)
		out.act = append(out.act, r.Act)
		out.restore = append(out.restore, r.Restore)
		out.peak = append(out.peak, float64(r.PeakWorkers))
		out.builds = append(out.builds, r.build.Seconds())
		out.cycles = append(out.cycles, float64(r.cycles))
		out.events = append(out.events, float64(r.events))
		out.adds += float64(r.Adds)
		out.lows += float64(r.Lows)
		out.evicted += float64(r.evicted)
		if !math.IsNaN(r.sensorLag) {
			out.lag = append(out.lag, r.sensorLag)
		}
	}
	if len(out.runs) == 0 {
		return nil, fmt.Errorf("mape-extload: no injection completed: %v", errs[0])
	}
	return out, nil
}

func mergeHist(runs []extRun, h func(extRun) *metrics.Histogram) metrics.HistogramSnapshot {
	var acc metrics.HistogramSnapshot
	for _, r := range runs {
		hh := h(r)
		if hh == nil {
			continue
		}
		s := hh.Snapshot()
		if acc.Count == 0 {
			acc = s
		} else if m, err := metrics.Merge(acc, s); err == nil {
			acc = m
		}
	}
	return acc
}

// sealOpenUs is the single-goroutine baseline of the security layer: mean
// microseconds to seal and open one of the workload's payloads.
func sealOpenUs(seed uint64) float64 {
	const n = 20000
	c := security.MustAESGCM(security.NewRandomKey(), nil, 0)
	plain := newPayload(seed, 1, 0)
	var sealed, opened []byte
	start := time.Now()
	for i := 0; i < n; i++ {
		var err error
		sealed, err = security.AppendEncode(c, sealed[:0], plain)
		if err == nil {
			opened, err = security.AppendDecode(c, opened[:0], sealed)
		}
		if err != nil {
			return math.NaN()
		}
	}
	return float64(time.Since(start).Nanoseconds()) / n / 1e3
}

// openTasks is the task count of an open-loop phase at rate tasks/s.
func openTasks(rate int) uint64 { return uint64(rate) * uint64(openPhase) / uint64(time.Second) }

func perTaskUs(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n) / 1e3
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// finite maps the NaN of an empty sample to 0 so the result stays JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// settleGoroutines waits up to 3 s for the goroutine count to fall back
// to the run's starting count and returns how many are still left over.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// heapSampler records the peak live heap of a traced run.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

func startHeapSampler(on bool) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	if !on {
		close(h.done)
		return h
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-h.stopc:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				h.peak = max(h.peak, ms.HeapAlloc)
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak
}

// printTable prints every metric by name and unit, plus the oracle's
// findings, before the JSON line.
func (b *bench) printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end-to-end"
	if b.traced {
		mode = "per-layer"
	}
	fmt.Printf("workload %s (seed %d, %d s, %s)\n", b.name, b.seed, b.seconds, mode)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range []string{"lat_lo_p99_us", "lat_hi_p99_us"} {
		if t, ok := res.Tails[n]; ok {
			fmt.Printf("  %-28s %14.4f %s (not in the result: too noisy to gate)\n", n, t.Value, t.Unit)
		}
	}
	fmt.Printf("  %-28s %14.6f ratio (%d of %d)\n", "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	fmt.Printf("  %-28s %14d count\n", "goroutines left after teardown", b.leaked)
	fmt.Printf("  %-28s %14d count (the stream had ended; not failures)\n", "actuations refused at end", b.endRefusals)
	if len(b.notes) > 0 {
		fmt.Printf("oracle failures:\n  %s\n", strings.Join(b.notes, "\n  "))
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/skel"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// dataPlane is one farm configuration the data leg drives.
type dataPlane struct {
	tcp   bool
	batch int
}

const (
	farmWorkers = 2   // one per core of the 2-core reference host
	payloadSize = 256 // bytes: 8 intended-send stamp, 8 task id, 240 body
	rateLo      = 20000
	// rateHi leaves the TCP leg headroom on the 2-core reference host:
	// at 200k tasks/s it needs 1.6 cores and at 100k/s 1.2, and there its
	// latency turns into queueing that doubles whenever other tenants of
	// the host take CPU.
	rateHi = 50000
	// chanBuf sizes the farm's input and output channels like the repo's
	// own saturation benches, so a send blocks only when the farm lags.
	chanBuf = 1024
	// traceSample traces one task in 64: enough spans per phase for exact
	// stage medians, cheap enough to measure the tracing overhead.
	traceSample = 64
	traceRing   = 1 << 16
	// phaseTimeout bounds the wait for a phase's last result; anything
	// still missing then is counted lost.
	phaseTimeout = 10 * time.Second
)

// epoch anchors every stamp: nanoseconds on the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// bodyXOR is the worker transform: every body byte is flipped with it. The
// collector recomputes the body from the seed and checks the flip, so a
// result that skipped the worker, was corrupted, or belongs to another
// task fails the oracle.
const bodyXOR = 0xA5

func transform(p []byte) {
	for i := 16; i < len(p); i++ {
		p[i] ^= bodyXOR
	}
}

// fillBody writes the seeded body of task id into b (splitmix64 stream).
func fillBody(b []byte, seed, id uint64) {
	x := seed ^ (id * 0x9e3779b97f4a7c15)
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], z)
		copy(b[i:], w[:])
	}
}

// newPayload builds task id's payload stamped with its intended send time.
func newPayload(seed, id uint64, intended int64) []byte {
	p := make([]byte, payloadSize)
	binary.LittleEndian.PutUint64(p[0:], uint64(intended))
	binary.LittleEndian.PutUint64(p[8:], id)
	fillBody(p[16:], seed, id)
	return p
}

// checkResult reports whether p is task id's payload after the transform.
// want is scratch space of payloadSize-16 bytes.
func checkResult(p []byte, seed, id uint64, want []byte) bool {
	if len(p) != payloadSize || binary.LittleEndian.Uint64(p[8:]) != id {
		return false
	}
	fillBody(want, seed, id)
	for i := range want {
		want[i] ^= bodyXOR
	}
	return bytes.Equal(p[16:], want)
}

// latencyNs is a result's latency: receipt minus the intended send time
// stamped in its payload, so time the task spent waiting for a late
// generator counts.
func latencyNs(p []byte, recv int64) int64 {
	return recv - int64(binary.LittleEndian.Uint64(p[0:]))
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// onPacedThread runs the generator fn on an OS thread of its own whose
// timer slack is 1 ns, and returns when fn does. The runtime's timers
// wake a mostly idle process in whole milliseconds and a thread's default
// slack is 50 µs, so either would make the generator run late by about
// its send interval; a nanosleep on this thread ends within microseconds
// of its deadline. The goroutine returns still locked, so the thread, with
// its changed slack, exits with it.
func onPacedThread(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		// On failure the thread keeps the default slack: the generator
		// runs later, which bench.gen_late_p99_us reports.
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		fn()
	}()
	<-done
}

// pace sleeps the calling thread until the next due send. An interrupted
// sleep returns early and the caller re-checks the clock.
func pace(ahead int64) {
	ts := syscall.NsecToTimespec(ahead)
	_ = syscall.Nanosleep(&ts, nil)
}

// phase is one measured stretch of the stream: tasks base..base+n-1.
type phase struct {
	base, n uint64
	// mu orders the collector's writes before the generator's reads when
	// a phase ends by timeout rather than by its last result.
	mu   sync.Mutex
	lat  []int64 // per task; valid where seen
	seen []bool
	recv atomic.Uint64
	bad  atomic.Uint64 // duplicates and corrupt results
	last atomic.Int64  // receipt of the latest result
	done chan struct{} // closed when every task has arrived
}

func newPhase(base, n uint64) *phase {
	return &phase{base: base, n: n, lat: make([]int64, n), seen: make([]bool, n), done: make(chan struct{})}
}

// rig is one running farm with its transport and its collector.
type rig struct {
	farm    *skel.Farm
	in      chan *skel.Task
	out     chan *skel.Task
	runDone chan struct{}
	colDone chan struct{}
	servers []*wire.Server
	factory *wire.Factory
	tracer  *telemetry.TaskTracer
	ins     *skel.FarmInstruments
	seed    uint64
	cur     atomic.Pointer[phase]
	strays  atomic.Uint64 // results outside the current phase
	nextID  uint64
}

func benchHello(i int) wire.Hello {
	return wire.Hello{Name: fmt.Sprintf("bench%d", i), Domain: "bench.remote", Trusted: true, Cores: 1, Speed: 1}
}

// setupRig builds a farm of farmWorkers workers with AES-GCM bindings and
// returns once it is ready: workers up and codecs installed; on TCP also
// servers listening and sessions dialed and rekeyed.
func setupRig(dp dataPlane, seed uint64, traced bool, rec *recorder, parent uint64) (*rig, time.Duration, error) {
	start := time.Now()
	r := &rig{seed: seed, nextID: 1}
	cfg := skel.FarmConfig{
		Name:           "bench",
		Env:            skel.Env{TimeScale: 1},
		InitialWorkers: farmWorkers,
		DispatchBatch:  dp.batch,
		Fn:             func(t *skel.Task) *skel.Task { transform(t.Payload); return t },
	}
	if traced {
		r.tracer = telemetry.NewTaskTracer(seed, traceSample, traceRing)
		r.ins = &skel.FarmInstruments{Dispatch: metrics.NewLatencyHistogram(), Seal: metrics.NewLatencyHistogram()}
		cfg.Tracer, cfg.Instruments = r.tracer, r.ins
	}
	if dp.tcp {
		psk := wire.DerivePSK(fmt.Sprintf("perfbench-%d", seed))
		var nodes []*grid.Node
		for i := 0; i < farmWorkers; i++ {
			sp := rec.begin(parent, "wire", "wire.Server.Listen")
			srv, err := wire.NewServer(wire.ServerConfig{
				PSK: psk, Hello: benchHello(i),
				Fn: func(p []byte) []byte { transform(p); return p },
			})
			if err == nil {
				err = srv.Listen("127.0.0.1:0")
			}
			rec.end(sp)
			if err != nil {
				r.close()
				return nil, 0, err
			}
			r.servers = append(r.servers, srv)
			nodes = append(nodes, wire.NodeFromHello(srv.Addr(), benchHello(i)))
		}
		f, err := wire.NewFactory(psk, 5*time.Second)
		if err != nil {
			r.close()
			return nil, 0, err
		}
		r.factory = f
		cfg.RM = grid.NewResourceManager(nodes...)
		cfg.Executors = f.Executor
	} else {
		cfg.RM = grid.NewSMP(farmWorkers).RM
	}
	sp := rec.begin(parent, "skel", "skel.NewFarm+Run")
	farm, err := skel.NewFarm(cfg)
	if err != nil {
		rec.end(sp)
		r.close()
		return nil, 0, err
	}
	r.farm = farm
	r.in = make(chan *skel.Task, chanBuf)
	r.out = make(chan *skel.Task, chanBuf)
	r.runDone = make(chan struct{})
	r.colDone = make(chan struct{})
	go func() {
		defer close(r.runDone)
		farm.Run(context.Background(), r.in, r.out)
	}()
	go r.collect()
	// Run recruits the initial workers (and dials their sessions) before
	// it dispatches anything; wait for them without sleeping, which would
	// quantize the set-up time to the timer granularity.
	deadline := time.Now().Add(10 * time.Second)
	for len(farm.Workers()) < farmWorkers {
		if time.Now().After(deadline) {
			rec.end(sp)
			r.close()
			return nil, 0, errors.New("farm workers never came up")
		}
		runtime.Gosched()
	}
	rec.end(sp)
	sp = rec.begin(parent, "security", "skel.Farm.SetCodec")
	key := security.NewRandomKey()
	for _, w := range farm.Workers() {
		if err := farm.SetCodec(w.ID, security.MustAESGCM(key, nil, 0)); err != nil {
			rec.end(sp)
			r.close()
			return nil, 0, err
		}
	}
	rec.end(sp)
	return r, time.Since(start), nil
}

// close ends the stream, drains the farm and the collector, and closes
// the servers and the factory's control sessions.
func (r *rig) close() {
	if r.farm != nil {
		close(r.in)
		<-r.runDone
		<-r.colDone
	}
	for _, s := range r.servers {
		_ = s.Close()
	}
	if r.factory != nil {
		r.factory.CloseControls()
	}
}

// collect is the single collector: it checks every result against the
// oracle and records its latency into the current phase.
func (r *rig) collect() {
	defer close(r.colDone)
	want := make([]byte, payloadSize-16)
	for t := range r.out {
		recv := nowNs()
		ph := r.cur.Load()
		if ph == nil || t.ID < ph.base || t.ID >= ph.base+ph.n {
			r.strays.Add(1)
			continue
		}
		i := t.ID - ph.base
		ph.mu.Lock()
		if ph.seen[i] || !checkResult(t.Payload, r.seed, t.ID, want) {
			ph.bad.Add(1)
			ph.mu.Unlock()
			continue
		}
		ph.seen[i] = true
		ph.lat[i] = latencyNs(t.Payload, recv)
		ph.last.Store(recv)
		if ph.recv.Add(1) == ph.n {
			close(ph.done)
		}
		ph.mu.Unlock()
	}
}

// phaseResult is what one phase measured.
type phaseResult struct {
	n       uint64
	lost    uint64
	bad     uint64
	wall    time.Duration // first send to last receipt
	cpu     time.Duration // process user+sys over the phase
	alloc   uint64        // bytes allocated over the phase
	lat     []float64     // µs, received tasks only
	late    []float64     // µs, generator lateness per send
	blocks  []float64     // µs, traced only: time each send blocked
	statsUs []float64     // µs, traced only: Farm.Stats() call latency
}

// runPhase sends n tasks, at rate tasks/s on a fixed schedule or, with
// rate 0, as fast as the farm accepts them, and waits for their results.
func (r *rig) runPhase(n uint64, rate int, traced bool, rec *recorder, parent uint64, name string) phaseResult {
	ph := newPhase(r.nextID, n)
	r.nextID += n
	r.cur.Store(ph)
	res := phaseResult{n: n}
	if rate > 0 {
		res.late = make([]float64, 0, n)
	}
	if traced && rate > 0 {
		res.blocks = make([]float64, 0, n)
	}
	psp := rec.begin(parent, "bench", name)
	var stopPoll chan struct{}
	var pollDone sync.WaitGroup
	if traced && rate > 0 {
		// The MAPE monitor phase reads Farm.Stats mid-stream; time it
		// every ~10 ms while the generator runs.
		stopPoll = make(chan struct{})
		pollDone.Add(1)
		go func() {
			defer pollDone.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					sp := rec.begin(psp, "skel", "skel.Farm.Stats")
					s := time.Now()
					_ = r.farm.Stats()
					res.statsUs = append(res.statsUs, float64(time.Since(s).Nanoseconds())/1e3)
					rec.end(sp)
				}
			}
		}()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := nowNs()
	onPacedThread(func() { r.generate(ph, rate, traced, rec, psp, &res) })
	select {
	case <-ph.done:
	case <-time.After(phaseTimeout):
	}
	if traced && rate > 0 {
		close(stopPoll)
		pollDone.Wait()
	}
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	res.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	rec.end(psp)
	// Late arrivals after the timeout land as strays of the next phase.
	r.cur.Store(nil)
	ph.mu.Lock()
	defer ph.mu.Unlock()
	got := ph.recv.Load()
	res.lost = n - got
	res.bad = ph.bad.Load()
	res.wall = time.Duration(ph.last.Load() - start)
	res.lat = make([]float64, 0, got)
	for i, ok := range ph.seen {
		if ok {
			res.lat = append(res.lat, float64(ph.lat[i])/1e3)
		}
	}
	return res
}

// generate sends the phase's tasks: at rate tasks/s on a schedule fixed
// at the phase's start, which does not slow when the farm does, or with
// rate 0 as fast as the farm accepts them. Each payload carries its
// intended send time.
func (r *rig) generate(ph *phase, rate int, traced bool, rec *recorder, psp uint64, res *phaseResult) {
	t0 := nowNs() + int64(100*time.Microsecond)
	var interval int64
	if rate > 0 {
		interval = int64(time.Second) / int64(rate)
	}
	n := ph.n
	for k := uint64(0); k < n; {
		now := nowNs()
		due := now
		if rate > 0 {
			due = t0 + int64(k)*interval
			if now < due {
				pace(due - now)
				continue
			}
			res.late = append(res.late, float64(now-due)/1e3)
		}
		id := ph.base + k
		t := &skel.Task{ID: id, Payload: newPayload(r.seed, id, due)}
		if traced {
			s := nowNs()
			r.in <- t
			e := nowNs()
			if rate > 0 {
				res.blocks = append(res.blocks, float64(e-s)/1e3)
			}
			if k%traceSample == 0 {
				rec.add(psp, "skel", "send", s, e)
			}
		} else {
			r.in <- t
		}
		k++
	}
}

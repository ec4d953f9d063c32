package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// A synthetic scaled run: wall milliseconds stand for modelled seconds at
// scale 1000.
func TestExtractReaction(t *testing.T) {
	const scale = 1000
	t0 := time.Unix(1000, 0)
	at := func(modelled float64) time.Time {
		return t0.Add(time.Duration(modelled / scale * float64(time.Second)))
	}
	log := trace.NewLog()
	// Before the injection: ignored even though it is a violation.
	log.Record(at(-3), "AM_F", trace.ContrLow, "")
	log.Record(at(-2), "AM_F", trace.AddWorker, "")
	injected := at(0)
	log.Record(at(4), "ENV", trace.ContrLow, "") // another source
	log.Record(at(8), "AM_F", trace.ContrLow, "")
	log.Record(at(8.5), "AM_F", trace.AddWorker, "")
	log.Record(at(10), "AM_F", trace.ContrLow, "")
	log.Record(at(10.5), "AM_F", trace.AddWorker, "")
	log.Record(at(12), "AM_F", trace.ContrLow, "")

	tp := metrics.NewSeries("throughput")
	workers := metrics.NewSeries("workers")
	for s := -5.0; s <= 40; s++ {
		v := 0.8
		switch {
		case s > 0 && s < 24:
			v = 0.3
		case s >= 0 && s < 1:
			v = 0.7 // still high, but before the actuation: not a restore
		}
		tp.Append(at(s), v)
		w := 5.0
		if s > 8 {
			w = math.Min(5+s-8, 17)
		}
		workers.Append(at(s), w)
	}

	r, err := extractReaction(log, tp, workers, injected, scale, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6 }
	if !near(r.Detect, 8) || !near(r.Act, 8.5) || !near(r.Restore, 24) {
		t.Fatalf("detect/act/restore = %v/%v/%v, want 8/8.5/24", r.Detect, r.Act, r.Restore)
	}
	if r.PeakWorkers != 17 || r.Lows != 3 || r.Adds != 2 {
		t.Fatalf("peak/lows/adds = %d/%d/%d, want 17/3/2", r.PeakWorkers, r.Lows, r.Adds)
	}
}

func TestExtractReactionNeedsEveryStep(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tp := metrics.NewSeries("throughput")
	workers := metrics.NewSeries("workers")
	log := trace.NewLog()
	if _, err := extractReaction(log, tp, workers, t0, 1, 0.6); err == nil {
		t.Fatal("no violation accepted")
	}
	log.Record(t0.Add(time.Second), "AM_F", trace.ContrLow, "")
	if _, err := extractReaction(log, tp, workers, t0, 1, 0.6); err == nil {
		t.Fatal("no actuation accepted")
	}
	log.Record(t0.Add(2*time.Second), "AM_F", trace.AddWorker, "")
	tp.Append(t0.Add(3*time.Second), 0.5)
	if _, err := extractReaction(log, tp, workers, t0, 1, 0.6); err == nil {
		t.Fatal("unrestored contract accepted")
	}
}

package main

import (
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {200000, 0.9999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentilesRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	if _, _, err := percentiles(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1
	}
	p50, p99, err := percentiles(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 500 || p99 != 990 {
		t.Fatalf("p50, p99 = %v, %v; want 500, 990", p50, p99)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if xs[0] != 3 {
		t.Fatal("median reordered its input")
	}
}

// A task stamped with its intended send time and sent late by a stalled
// generator must report the stall as latency, not just the service time.
func TestLatencyCountsFromIntendedSend(t *testing.T) {
	const (
		intended = int64(5 * time.Millisecond)
		stall    = int64(2 * time.Millisecond)
		service  = int64(30 * time.Microsecond)
	)
	p := newPayload(7, 42, intended)
	transform(p) // the worker's side
	recv := intended + stall + service
	if got := latencyNs(p, recv); got != stall+service {
		t.Fatalf("latency = %d ns, want %d", got, stall+service)
	}
	if !checkResult(p, 7, 42, make([]byte, payloadSize-16)) {
		t.Fatal("oracle rejected a correct result")
	}
}

func TestOracleRejectsWrongResults(t *testing.T) {
	want := make([]byte, payloadSize-16)
	untouched := newPayload(7, 42, 0)
	if checkResult(untouched, 7, 42, want) {
		t.Fatal("accepted a result the worker never transformed")
	}
	other := newPayload(7, 43, 0)
	transform(other)
	if checkResult(other, 7, 42, want) {
		t.Fatal("accepted another task's result")
	}
	flipped := newPayload(7, 42, 0)
	transform(flipped)
	flipped[100] ^= 1
	if checkResult(flipped, 7, 42, want) {
		t.Fatal("accepted a corrupt result")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		// Overlapping children cover [10,50] once, not twice.
		{ID: 2, Parent: 1, Layer: "skel", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "skel", Start: 30, End: 50},
		// A child reaching past its parent counts only inside it.
		{ID: 4, Parent: 1, Layer: "wire", Start: 90, End: 120},
		// A grandchild is charged to its own parent, not the root.
		{ID: 5, Parent: 4, Layer: "security", Start: 95, End: 100},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 100 - 40 - 10, "skel": 30 + 20, "wire": 30 - 5, "security": 5}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self[%s] = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.begin(0, "bench", "x")
	r.end(id)
	r.add(0, "bench", "y", 1, 2)
	if id != 0 || r.snapshot() != nil {
		t.Fatal("nil recorder recorded")
	}
}

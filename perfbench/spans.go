package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer of the
// program. Spans of one run share the run id; Parent links a span to the
// span that caused it (0 for a root).
type span struct {
	Run    string `json:"run"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs pay one branch per call site.
type recorder struct {
	run    string
	epoch  time.Time
	offset int64 // the recorder's epoch in nanoseconds since the process epoch

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder {
	now := time.Now()
	return &recorder{run: run, epoch: now, offset: int64(now.Sub(epoch))}
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(parent uint64, layer, name string) uint64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{Run: r.run, ID: id, Parent: parent, Layer: layer, Name: name, Start: now, End: now})
	return id
}

// add records a span whose interval the caller timed itself, in
// nanoseconds since the process epoch.
func (r *recorder) add(parent uint64, layer, name string, start, end int64) {
	if r == nil {
		return
	}
	start, end = start-r.offset, end-r.offset
	r.mu.Lock()
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{Run: r.run, ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// end closes the span opened as id.
func (r *recorder) end(id uint64) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line to path.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover. Children may overlap one another
// (a poller's calls run beside the phase that parents them), so the
// covered part is the length of the union of the clipped child intervals.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.Layer] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] > curB:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

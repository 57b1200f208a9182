package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Tracing for the traced run. Spans are recorded from the benchmark's own
// wrappers around each layer's public interfaces; the program itself carries
// no tracing. Every span has a name, a start, an end and a parent. Aggregates
// (count, total, self) are folded in as spans end; the raw spans are kept in
// a bounded in-memory ring per recorder and written out when the run ends.

// rawSpan is one recorded span; times are ns since the recorder's epoch.
type rawSpan struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanAgg accumulates one span name.
type spanAgg struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"` // sum of durations
	Self  int64 `json:"self_ns"`  // sum of durations minus time covered by child spans
	Items int64 `json:"items"`    // caller-defined units of work (datagrams, ...)
}

// ringSpans bounds each recorder's raw-span ring.
const ringSpans = 1 << 11

// actorTracer records nested spans for one goroutine (one virtual-time
// actor, or one relay reader). It is not safe for concurrent use.
type actorTracer struct {
	epoch time.Time
	base  int64 // span IDs are base+1, base+2, ...: unique across recorders
	seq   int64
	stack []openSpan
	agg   map[string]*spanAgg
	ring  []rawSpan
	next  int
}

type openSpan struct {
	name     string
	id       int64
	start    int64
	children int64
}

func newActorTracer(epoch time.Time, id int) *actorTracer {
	return &actorTracer{epoch: epoch, base: int64(id) << 40, agg: map[string]*spanAgg{}, ring: make([]rawSpan, 0, ringSpans)}
}

func (t *actorTracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *actorTracer) begin(name string) {
	t.seq++
	t.stack = append(t.stack, openSpan{name: name, id: t.base + t.seq, start: t.now()})
}

// end closes the innermost span, which must be name, crediting items units
// of work to it.
func (t *actorTracer) end(name string, items int64) {
	end := t.now()
	n := len(t.stack) - 1
	if n < 0 || t.stack[n].name != name {
		panic(fmt.Sprintf("trace: end %q does not close the open span", name))
	}
	sp := t.stack[n]
	t.stack = t.stack[:n]
	d := end - sp.start
	var parent int64
	if n > 0 {
		t.stack[n-1].children += d
		parent = t.stack[n-1].id
	}
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.Count++
	a.Total += d
	a.Self += d - sp.children
	a.Items += items
	t.keep(rawSpan{Name: name, ID: sp.id, Parent: parent, Start: sp.start, End: end})
}

// open reports whether the innermost open span is name.
func (t *actorTracer) open(name string) bool {
	return len(t.stack) > 0 && t.stack[len(t.stack)-1].name == name
}

func (t *actorTracer) keep(s rawSpan) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
}

// mergeAggs sums per-recorder aggregates by span name.
func mergeAggs(dst map[string]*spanAgg, src map[string]*spanAgg) {
	for k, v := range src {
		a := dst[k]
		if a == nil {
			a = &spanAgg{}
			dst[k] = a
		}
		a.Count += v.Count
		a.Total += v.Total
		a.Self += v.Self
		a.Items += v.Items
	}
}

// writeSpans writes raw spans as JSON lines.
func writeSpans(path string, groups ...[]rawSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, g := range groups {
		for _, s := range g {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// The tracer records spans around the benchmark's calls into each layer.
// Spans nest on one goroutine (the load generator), so a span's self time
// is its duration minus the durations of its direct children. Every span
// is aggregated per name; the first maxRawSpans non-hot spans are also
// kept raw (name, start, end, parent) for the trace file. Hot spans —
// one per push call — are aggregated only.
//
// A nil *tracer records nothing: the untraced run passes nil.

const maxRawSpans = 20000

type rawSpan struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into spans, -1 for a root
}

type spanAgg struct {
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
	Parent  string `json:"parent"`
}

type frame struct {
	name    string
	start   int64
	childNS int64
	raw     int // index into spans, -1 when not kept
}

type tracer struct {
	epoch time.Time
	spans []rawSpan
	stack []frame
	agg   map[string]*spanAgg
	last  map[string]int64 // duration of the latest span of each name
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), agg: make(map[string]*spanAgg), last: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span kept raw (while room remains) and aggregated.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.open(name, len(t.spans) < maxRawSpans)
}

// beginHot opens an aggregated-only span, for calls made once per event.
func (t *tracer) beginHot(name string) {
	if t == nil {
		return
	}
	t.open(name, false)
}

func (t *tracer) open(name string, keep bool) {
	f := frame{name: name, start: t.now(), raw: -1}
	if keep {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].raw
		}
		f.raw = len(t.spans)
		t.spans = append(t.spans, rawSpan{Name: name, StartNS: f.start, Parent: parent})
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	now := t.now()
	dur := now - f.start
	if f.raw >= 0 {
		t.spans[f.raw].EndNS = now
	}
	a := t.agg[f.name]
	if a == nil {
		a = &spanAgg{}
		if n > 0 {
			a.Parent = t.stack[n-1].name
		}
		t.agg[f.name] = a
	}
	a.Count++
	a.TotalNS += dur
	t.last[f.name] = dur
	a.SelfNS += dur - f.childNS
	if n > 0 {
		t.stack[n-1].childNS += dur
	}
}

// span runs fn inside a span and returns its duration.
func (t *tracer) span(name string, fn func() error) (time.Duration, error) {
	t.begin(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end()
	return d, err
}

// lastNS returns the duration of the latest closed span of that name.
func (t *tracer) lastNS(name string) int64 { return t.last[name] }

// selfByLayer sums self time per layer, the span-name prefix before the
// first '.'.
func (t *tracer) selfByLayer() map[string]int64 {
	out := make(map[string]int64)
	for name, a := range t.agg {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += a.SelfNS
	}
	return out
}

// selfTotal sums every span's self time; for properly nested spans it
// equals the summed duration of the root spans.
func (t *tracer) selfTotal() int64 {
	var s int64
	for _, a := range t.agg {
		s += a.SelfNS
	}
	return s
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	WallNS    int64               `json:"wall_ns"`
	SelfNS    int64               `json:"self_ns"`
	Layers    map[string]int64    `json:"layer_self_ns"`
	Aggregate map[string]*spanAgg `json:"aggregate"`
	Spans     []rawSpan           `json:"spans"`
	Metrics   map[string]metric   `json:"metrics"`
}

func (t *tracer) writeFile(path string, tf traceFile) error {
	tf.SelfNS = t.selfTotal()
	tf.Layers = t.selfByLayer()
	tf.Aggregate = t.agg
	tf.Spans = t.spans
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(tf); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	return f.Close()
}

// printSummary writes the per-span aggregate, sorted by self time.
func (t *tracer) printSummary(w io.Writer, wallNS int64) {
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.agg[names[i]].SelfNS > t.agg[names[j]].SelfNS })
	fmt.Fprintf(w, "%-28s %10s %12s %12s %7s  %s\n", "span", "count", "total ms", "self ms", "self%", "parent")
	for _, n := range names {
		a := t.agg[n]
		fmt.Fprintf(w, "%-28s %10d %12.2f %12.2f %6.1f%%  %s\n", n, a.Count,
			float64(a.TotalNS)/1e6, float64(a.SelfNS)/1e6, 100*float64(a.SelfNS)/float64(wallNS), a.Parent)
	}
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rumor "repro"
)

// runner drives one workload through the public API: set-up, a closed
// loop, an open loop at the workload's fixed rate, and live maintenance
// with checkpoints. It records every per-query count after each pass and
// checks them against the reference at the end.
type runner struct {
	sp      *spec
	seconds float64
	tr      *tracer // nil in the untraced run
	epoch   time.Time

	attempted, failed int64
	reported          int

	lat atomic.Pointer[latRecorder]

	// names lists every query registered so far; snaps[j][i] is the
	// count of names[i] after pass j (queries added later are absent).
	names []string
	kinds []passKind
	snaps [][]int64
	wants []map[string]int64 // the reference's counts after each pass

	setupS     []float64
	closedEPS  []float64 // per closed pass; untraced passes only when tracing
	tracedEPS  []float64 // traced closed passes
	mallocs    uint64
	allocBytes uint64
	closedRows int64
	baseHeap   float64
	heapMB     float64
	latNS      [][]int64 // open-loop latency samples, per pass
	genLateNS  []int64
	addNS      []int64
	removeNS   []int64
	ckptNS     []int64
	ckpt       bytes.Buffer
}

func newRunner(sp *spec, seconds float64, tr *tracer) *runner {
	return &runner{sp: sp, seconds: seconds, tr: tr, epoch: time.Now()}
}

func (r *runner) clock() int64 { return int64(time.Since(r.epoch)) }

// fail counts a failed operation and reports the first few on stderr.
func (r *runner) fail(what string, err error) {
	r.failed++
	if r.reported < 20 {
		r.reported++
		fmt.Fprintf(os.Stderr, "%s: FAIL %s: %v\n", r.sp.name, what, err)
	}
}

func (r *runner) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail(what, err)
	}
}

// onResult is the result callback of local deployments. Outside the open
// loop it costs one atomic load.
func (r *runner) onResult(_ string, ts int64, _ []int64) {
	if rec := r.lat.Load(); rec != nil {
		rec.record(ts, r.clock())
	}
}

// latWindow is the length of schedule time whose latency samples form one
// window. Percentiles are taken per window, so a long stall of the host
// moves the windows it falls in only.
const latWindow = int64(25 * time.Millisecond)

// latRecorder maps a result's timestamp back to the due time of the step
// that carried it (pass = ts / span, step = ts mod span) and files the
// latency under the window of that due time.
type latRecorder struct {
	mu        sync.Mutex
	span      int64
	firstPass int64
	interval  float64 // ns between consecutive steps
	start     int64   // due time of the open loop's first step
	passStart []int64
	windows   [][]int64
}

func (l *latRecorder) due(pass, step int64) int64 {
	return l.passStart[pass-l.firstPass] + int64(float64(step)*l.interval)
}

func (l *latRecorder) record(ts, now int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if j := ts/l.span - l.firstPass; j >= 0 && j < int64(len(l.passStart)) {
		l.addLocked(l.due(ts/l.span, ts%l.span), now)
	}
}

func (l *latRecorder) addLocked(due, now int64) {
	w := int((due - l.start) / latWindow)
	for len(l.windows) <= w {
		l.windows = append(l.windows, nil)
	}
	l.windows[w] = append(l.windows[w], now-due)
}

// run executes every phase and returns the untraced (end-to-end) metrics
// or, when tracing, the harness-level per-layer metrics.
func (r *runner) run() (map[string]metric, error) {
	sp := r.sp
	if err := checkOrder(sp.feed.timestamps()); err != nil {
		return nil, err
	}
	s, err := r.setup()
	if err != nil {
		return nil, err
	}
	r.closedLoop(s)
	r.measureHeap()
	r.openLoop(s)
	if !sp.churnInClosed {
		r.tr.begin("bench.maintenance")
		r.pass(s, churnPass, newChurn(sp.pool(), sp.churnEvery), r.tr)
		r.tr.end()
	}
	r.tr.begin("rumor.close")
	r.check("close", s.close())
	r.tr.end()

	r.tr.begin("bench.reference")
	wants, refEPS, err := sp.expect(r.kinds)
	r.tr.end()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	r.wants = wants
	r.tr.begin("bench.check")
	r.compare(wants)
	r.tr.end()
	if r.tr != nil {
		return r.layerMetrics(refEPS), nil
	}
	return r.endToEnd(), nil
}

// setup builds the system again and again, timing each build, for at least
// setupRepeats builds and setupBudget of time (at most maxSetups builds),
// and keeps the last one.
func (r *runner) setup() (sut, error) {
	var s sut
	begin := time.Now()
	for i := 0; s == nil; i++ {
		qs := r.sp.base()
		base := heapMB()
		r.tr.begin("rumor.setup")
		start := time.Now()
		built, err := r.sp.deploy(qs, r.onResult)
		d := time.Since(start)
		r.tr.end()
		r.attempted++
		if err != nil {
			r.fail("setup", err)
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, d.Seconds())
		if more := i+1 < setupRepeats || time.Since(begin) < setupBudget; more && i+1 < maxSetups {
			r.check("close", built.close())
			continue
		}
		s = built
		r.baseHeap = base
		r.names = r.names[:0]
		for _, q := range qs {
			r.names = append(r.names, q.Name)
		}
	}
	return s, nil
}

// closedLoop pushes passes back to back for half the run (at least
// minClosed of them). Each pass is timed from its first push until its
// final drain returns. When tracing, odd passes are traced and even ones
// are not, so the two share the same conditions.
func (r *runner) closedLoop(s sut) {
	sp := r.sp
	kind := plainPass
	var ch *churn
	if sp.churnInClosed {
		kind = churnPass
		ch = newChurn(sp.pool(), sp.churnEvery)
	}
	budget := time.Duration(0.5 * r.seconds * float64(time.Second))
	r.tr.begin("bench.closed_loop")
	defer r.tr.end()
	start := time.Now()
	for n := 0; n < sp.minClosed || time.Since(start) < budget; n++ {
		var tr *tracer
		if r.tr != nil && n%2 == 1 {
			tr = r.tr
		}
		rumor.EnableMetrics(tr != nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := r.pass(s, kind, ch, tr)
		runtime.ReadMemStats(&after)
		eps := float64(sp.feed.events) / d.Seconds()
		if tr != nil {
			r.tracedEPS = append(r.tracedEPS, eps)
			continue
		}
		r.closedEPS = append(r.closedEPS, eps)
		r.mallocs += after.Mallocs - before.Mallocs
		r.allocBytes += after.TotalAlloc - before.TotalAlloc
		r.closedRows += int64(sp.feed.events)
	}
	rumor.EnableMetrics(r.tr != nil)
}

// pass pushes the feed once at the next offset and returns the time from
// the first push until the drain returned. A churn pass runs the churn
// schedule between steps and checkpoints sp.checkpoints times.
func (r *runner) pass(s sut, kind passKind, ch *churn, tr *tracer) time.Duration {
	sp := r.sp
	f := sp.feed
	offset := int64(len(r.kinds)) * f.span
	ckptEvery := f.len() / sp.checkpoints
	tr.begin("bench.pass")
	start := time.Now()
	for i := 0; i < f.len(); i++ {
		tr.beginHot("rumor.push")
		err := s.push(f.step(i), offset)
		tr.end()
		r.attempted++
		if err != nil {
			r.fail("push", err)
		}
		if kind != churnPass {
			continue
		}
		if o, ok := ch.tick(); ok {
			r.maintain(s, o, tr)
		}
		if (i+1)%ckptEvery == 0 {
			r.checkpoint(s, tr)
		}
	}
	if kind == churnPass && !sp.churnInClosed {
		for _, o := range ch.drainOps() {
			r.maintain(s, o, tr)
		}
	}
	tr.begin("rumor.drain")
	r.check("drain", s.drain())
	tr.end()
	d := time.Since(start)
	tr.end()
	r.snapshot(s, kind)
	return d
}

func (r *runner) maintain(s sut, o op, tr *tracer) {
	name := "rumor.remove_query"
	if o.add {
		name = "rumor.add_query_live"
	}
	d, err := tr.span(name, func() error { return applyOp(s, o) })
	r.check(name, err)
	if !o.add {
		r.removeNS = append(r.removeNS, int64(d))
		return
	}
	r.addNS = append(r.addNS, int64(d))
	if err == nil {
		r.names = append(r.names, o.name)
	}
}

func (r *runner) checkpoint(s sut, tr *tracer) {
	r.ckpt.Reset()
	d, err := tr.span("rumor.checkpoint", func() error { return s.checkpoint(&r.ckpt) })
	r.check("checkpoint", err)
	r.ckptNS = append(r.ckptNS, int64(d))
}

func (r *runner) snapshot(s sut, kind passKind) {
	snap := make([]int64, len(r.names))
	for i, n := range r.names {
		snap[i] = s.count(n)
	}
	r.kinds = append(r.kinds, kind)
	r.snaps = append(r.snaps, snap)
}

// measureHeap records the live heap after the closed loop, net of what
// the harness held before the system was built.
func (r *runner) measureHeap() {
	r.heapMB = heapMB() - r.baseHeap
}

// heapMB collects garbage and returns the live heap in MiB.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// openLoop pushes passes on a fixed schedule at the workload's rate for
// about a third of the run. A step is due at its pass's start plus its
// index times the step interval, whether or not the system kept up, and
// each result is timed from the due time of the step whose timestamp it
// carries. A deployment without callbacks drains every drainEvery steps
// and times each event until that drain returns.
func (r *runner) openLoop(s sut) {
	sp := r.sp
	f := sp.feed
	interval := float64(time.Second) / sp.rate * float64(f.events) / float64(f.len())
	passes := int(math.Ceil(0.3 * r.seconds * sp.rate / float64(sp.feed.events)))
	next := r.clock()
	rec := &latRecorder{span: sp.feed.span, firstPass: int64(len(r.kinds)), interval: interval, start: next}
	if sp.drainEvery == 0 {
		r.lat.Store(rec)
	}
	r.tr.begin("bench.open_loop")
	defer r.tr.end()
	for j := 0; j < passes; j++ {
		passStart := max(next, r.clock())
		rec.mu.Lock()
		rec.passStart = append(rec.passStart, passStart)
		rec.mu.Unlock()
		offset := int64(len(r.kinds)) * sp.feed.span
		drained := 0
		r.tr.begin("bench.pass")
		for i := 0; i < f.len(); i++ {
			due := passStart + int64(float64(i)*interval)
			now := r.waitUntil(due)
			r.genLateNS = append(r.genLateNS, now-due)
			r.tr.beginHot("rumor.push")
			err := s.push(f.step(i), offset)
			r.tr.end()
			r.attempted++
			if err != nil {
				r.fail("push", err)
			}
			if sp.drainEvery > 0 && ((i+1)%sp.drainEvery == 0 || i == f.len()-1) {
				r.tr.begin("rumor.drain")
				r.check("drain", s.drain())
				r.tr.end()
				visible := r.clock()
				rec.mu.Lock()
				for k := drained; k <= i; k++ {
					rec.addLocked(passStart+int64(float64(k)*interval), visible)
				}
				rec.mu.Unlock()
				drained = i + 1
			}
		}
		r.tr.begin("rumor.drain")
		r.check("drain", s.drain())
		r.tr.end()
		r.tr.end()
		r.snapshot(s, plainPass)
		next = passStart + int64(float64(f.len())*interval)
	}
	r.lat.Store(nil)
	rec.mu.Lock()
	r.latNS = rec.windows
	rec.mu.Unlock()
}

// waitUntil returns once the clock reaches due: it sleeps while more than
// 200µs remain and yields the processor otherwise.
func (r *runner) waitUntil(due int64) int64 {
	for {
		now := r.clock()
		if now >= due {
			return now
		}
		if wait := due - now; wait > int64(200*time.Microsecond) {
			time.Sleep(time.Duration(wait) - 100*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// compare checks every recorded snapshot against the reference; each
// query compared is one attempted operation and each mismatch one failed
// operation.
func (r *runner) compare(wants []map[string]int64) {
	if len(wants) != len(r.snaps) {
		r.fail("check", fmt.Errorf("reference returned %d passes, the run made %d", len(wants), len(r.snaps)))
		return
	}
	for j, snap := range r.snaps {
		got := make(map[string]int64, len(snap))
		for i, n := range snap {
			got[r.names[i]] = n
		}
		mm := mismatches(got, wants[j])
		r.attempted += int64(len(wants[j]))
		for _, m := range mm {
			r.fail(fmt.Sprintf("output check, pass %d", j), errors.New(m))
		}
	}
}

package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/zipf"
)

// step is one ingest call of a pass: a single event (vals) or, on a
// columnar feed, one batch of rows that share a timestamp (cols[a][row]).
// ts is local to the pass; a pass at offset o pushes ts+o. Steps are
// numbered so that step i carries local timestamp i, which is how a result
// is traced back to the step (and due time) that caused it.
type step struct {
	src  string
	ts   int64
	vals []int64
	cols [][]int64
}

func (s *step) rows() int {
	if s.cols != nil {
		return len(s.cols[0])
	}
	return 1
}

// feed is one pass of a workload's input. The benchmark pushes it again
// and again, each pass shifted by span, which is the pass length plus a
// gap wider than every window of the workload's queries. No operator
// state outlives the gap, so every pass produces the same per-query
// results as the first one did on a fresh system.
//
// Event feeds keep their values in one flat, pointer-free slice, so the
// garbage collector need not scan the harness's input: its cost stays the
// system's own.
type feed struct {
	sources []string
	src     []uint8     // source index per step
	ts      []int64     // local timestamp per step
	arity   int         // values per event, event feeds
	vals    []int64     // event feeds: arity values per step
	cols    [][][]int64 // columnar feeds: per step, cols[a][row]
	span    int64
	events  int // rows per pass
}

func newFeed(steps []step, maxWindow int64) *feed {
	f := &feed{src: make([]uint8, len(steps)), ts: make([]int64, len(steps))}
	index := make(map[string]uint8)
	for i, st := range steps {
		id, ok := index[st.src]
		if !ok {
			id = uint8(len(f.sources))
			index[st.src] = id
			f.sources = append(f.sources, st.src)
		}
		f.src[i], f.ts[i] = id, st.ts
		f.events += st.rows()
		if st.cols != nil {
			f.cols = append(f.cols, st.cols)
			continue
		}
		f.arity = len(st.vals)
		f.vals = append(f.vals, st.vals...)
	}
	f.span = int64(len(steps)) + maxWindow + 1
	return f
}

func (f *feed) len() int { return len(f.ts) }

// step returns step i as pushed by the API calls.
func (f *feed) step(i int) step {
	st := step{src: f.sources[f.src[i]], ts: f.ts[i]}
	if f.cols != nil {
		st.cols = f.cols[i]
	} else {
		st.vals = f.vals[i*f.arity : (i+1)*f.arity : (i+1)*f.arity]
	}
	return st
}

// timestamps lists every row's local timestamp in push order.
func (f *feed) timestamps() []int64 {
	out := make([]int64, 0, f.events)
	for i := 0; i < f.len(); i++ {
		st := f.step(i)
		for r := 0; r < st.rows(); r++ {
			out = append(out, st.ts)
		}
	}
	return out
}

// checkOrder is the feed guard: the engine's API requires timestamps that
// never decrease across sources, and does not check it, so a feed that
// breaks the order is refused before anything is timed.
func checkOrder(ts []int64) error {
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return fmt.Errorf("feed guard: row %d has timestamp %d after %d; timestamps must not decrease across sources", i, ts[i], ts[i-1])
		}
	}
	return nil
}

// mismatches compares per-query result counts with the reference, over
// the queries the reference covers, and returns one line per query that
// differs, in name order.
func mismatches(got, want map[string]int64) []string {
	var out []string
	for name, w := range want {
		if g := got[name]; g != w {
			out = append(out, fmt.Sprintf("%s: got %d results, reference %d", name, g, w))
		}
	}
	sort.Strings(out)
	return out
}

// churn is the live-maintenance schedule: every `every` steps it either
// adds the next query of the pool (under a fresh name) or removes the
// transient query a Zipf draw picks among the active ones, alternating.
// The schedule depends only on the pool and the step count, so the system
// under test and the reference replay the same operations.
type churn struct {
	pool    []*core.Query
	every   int
	next    int
	ops     int
	since   int
	active  []string
	victims *zipf.Gen
}

func newChurn(pool []*core.Query, every int) *churn {
	return &churn{pool: pool, every: every, victims: zipf.New(len(pool), 1.5, 41)}
}

// op is one maintenance operation; add is false for a removal.
type op struct {
	add  bool
	name string
	root *core.Logical
}

// tick advances the schedule by one step and returns the operation due
// after it, if any.
func (c *churn) tick() (op, bool) {
	c.since++
	if c.since < c.every {
		return op{}, false
	}
	c.since = 0
	c.ops++
	if c.ops%2 == 1 || len(c.active) == 0 {
		q := c.pool[c.next%len(c.pool)]
		name := fmt.Sprintf("churn_%d", c.next)
		c.next++
		c.active = append(c.active, name)
		return op{add: true, name: name, root: q.Root}, true
	}
	i := c.victims.Next0() % len(c.active)
	name := c.active[i]
	c.active = append(c.active[:i], c.active[i+1:]...)
	return op{name: name}, true
}

// drainOps removes every still-active transient query, oldest first.
func (c *churn) drainOps() []op {
	var out []op
	for _, name := range c.active {
		out = append(out, op{name: name})
	}
	c.active = nil
	return out
}

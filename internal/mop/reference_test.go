package mop_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
)

// This file checks every operator against an independent brute-force
// reference evaluator on random inputs. Unlike the naive-vs-optimized
// equivalence tests (which compare two engine configurations), the
// reference here re-derives the expected outputs from the paper's operator
// definitions directly, so a semantic bug shared by all engine paths is
// still caught.

type refEvent struct {
	src string
	t   *stream.Tuple
}

func randFeed(r *rand.Rand, n, domain int) []refEvent {
	feed := make([]refEvent, n)
	for i := range feed {
		src := "S"
		if i%2 == 1 {
			src = "T"
		}
		feed[i] = refEvent{
			src: src,
			t:   stream.NewTuple(int64(i), int64(r.Intn(domain)), int64(r.Intn(domain))),
		}
	}
	return feed
}

// runSingle runs one query through plan + engine and returns sorted result
// keys.
func runSingle(t *testing.T, root *core.Logical, feed []refEvent, optimize bool) []string {
	t.Helper()
	p := core.NewPhysical(catalog())
	q := core.NewQuery("q", root)
	if err := p.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	if optimize {
		if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	e.OnResult = func(_ int, tu *stream.Tuple) { got = append(got, tu.ContentKey()) }
	for _, ev := range feed {
		// Sources the query does not scan have no edge; skip them.
		if err := e.Push(ev.src, ev.t); err != nil {
			continue
		}
	}
	sort.Strings(got)
	return got
}

func diff(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\ngot:  %v\nwant: %v", name, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d: got %q, want %q", name, i, got[i], want[i])
		}
	}
}

// --- sliding-window aggregate reference --------------------------------

func refAgg(feed []refEvent, fn core.AggFn, attr int, window int64, groupBy []int) []string {
	var out []string
	var hist []*stream.Tuple
	for _, ev := range feed {
		if ev.src != "S" {
			continue
		}
		hist = append(hist, ev.t)
		gk := func(t *stream.Tuple) string {
			k := ""
			for _, g := range groupBy {
				k += fmt.Sprintf("%d|", t.Vals[g])
			}
			return k
		}
		// Aggregate over the in-window tuples of this tuple's group.
		var vals []int64
		for _, h := range hist {
			if window > 0 && ev.t.TS-h.TS >= window {
				continue
			}
			if gk(h) != gk(ev.t) {
				continue
			}
			vals = append(vals, h.Vals[attr])
		}
		var v int64
		switch fn {
		case core.AggSum:
			for _, x := range vals {
				v += x
			}
		case core.AggCount:
			v = int64(len(vals))
		case core.AggAvg:
			var s int64
			for _, x := range vals {
				s += x
			}
			v = s / int64(len(vals))
		case core.AggMin:
			v = vals[0]
			for _, x := range vals {
				if x < v {
					v = x
				}
			}
		case core.AggMax:
			v = vals[0]
			for _, x := range vals {
				if x > v {
					v = x
				}
			}
		}
		res := &stream.Tuple{TS: ev.t.TS}
		for _, g := range groupBy {
			res.Vals = append(res.Vals, ev.t.Vals[g])
		}
		res.Vals = append(res.Vals, v)
		out = append(out, res.ContentKey())
	}
	sort.Strings(out)
	return out
}

func TestAggAgainstReference(t *testing.T) {
	f := func(seed int64, fnRaw uint8, attrRaw uint8, winRaw uint8, grouped bool) bool {
		r := rand.New(rand.NewSource(seed))
		fn := core.AggFn(int(fnRaw) % 5)
		attr := int(attrRaw) % 2
		window := int64(winRaw)%16 + 1
		var gb []int
		if grouped {
			gb = []int{1 - attr}
		}
		feed := randFeed(r, 80, 5)
		got := runSingle(t, core.AggL(fn, attr, window, gb, core.Scan("S")), feed, true)
		want := refAgg(feed, fn, attr, window, gb)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- windowed join reference -------------------------------------------

func refJoin(feed []refEvent, window int64) []string {
	var out []string
	var ss, ts []*stream.Tuple
	for _, ev := range feed {
		if ev.src == "S" {
			ss = append(ss, ev.t)
			for _, o := range ts {
				if o.Vals[0] == ev.t.Vals[0] && ev.t.TS-o.TS <= window {
					j := &stream.Tuple{TS: ev.t.TS}
					j.Vals = append(j.Vals, ev.t.Vals...)
					j.Vals = append(j.Vals, o.Vals...)
					out = append(out, j.ContentKey())
				}
			}
		} else {
			ts = append(ts, ev.t)
			for _, o := range ss {
				if o.Vals[0] == ev.t.Vals[0] && ev.t.TS-o.TS <= window {
					j := &stream.Tuple{TS: ev.t.TS}
					j.Vals = append(j.Vals, o.Vals...)
					j.Vals = append(j.Vals, ev.t.Vals...)
					out = append(out, j.ContentKey())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func TestJoinAgainstReference(t *testing.T) {
	f := func(seed int64, winRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		window := int64(winRaw)%20 + 1
		feed := randFeed(r, 80, 4)
		pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
		got := runSingle(t, core.JoinL(pred, window, core.Scan("S"), core.Scan("T")), feed, true)
		want := refJoin(feed, window)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Cayuga ; reference --------------------------------------------------

// refSeq implements the paper's ; semantics (§5.2): an S tuple waits in
// state; the first matching T tuple within the window produces the
// concatenation and deletes the stored tuple.
func refSeq(feed []refEvent, window int64, c1, c3 int64) []string {
	var out []string
	type entry struct {
		t    *stream.Tuple
		dead bool
	}
	var state []*entry
	for _, ev := range feed {
		if ev.src == "S" {
			if ev.t.Vals[0] == c1 {
				state = append(state, &entry{t: ev.t})
			}
			continue
		}
		if ev.t.Vals[0] != c3 {
			continue
		}
		for _, en := range state {
			if en.dead {
				continue
			}
			age := ev.t.TS - en.t.TS
			if age > window {
				en.dead = true // expired
				continue
			}
			j := &stream.Tuple{TS: ev.t.TS}
			j.Vals = append(j.Vals, en.t.Vals...)
			j.Vals = append(j.Vals, ev.t.Vals...)
			out = append(out, j.ContentKey())
			en.dead = true // Cayuga match-delete
		}
	}
	sort.Strings(out)
	return out
}

func TestSeqAgainstReference(t *testing.T) {
	f := func(seed int64, c1Raw, c3Raw, winRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c1 := int64(c1Raw) % 4
		c3 := int64(c3Raw) % 4
		window := int64(winRaw)%20 + 1
		feed := randFeed(r, 100, 4)
		sel := core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c1}, core.Scan("S"))
		pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c3}})
		got := runSingle(t, core.SeqL(pred, window, sel, core.Scan("T")), feed, true)
		want := refSeq(feed, window, c1, c3)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Cayuga µ reference ---------------------------------------------------

// refMu implements the µ semantics over (start, last) instances started by
// S tuples with b < startMax: per T event within the window, an instance
// whose rebind edge holds extends (emitting start ++ event) and, if its
// filter edge holds too, also stays behind unchanged as a copy; one whose
// only the filter edge holds stays; any other is deleted, as on expiry.
func refMu(feed []refEvent, window int64, startMax int64, rebind, filter func(last, ev *stream.Tuple) bool) []string {
	var out []string
	type instance struct {
		start *stream.Tuple
		last  *stream.Tuple
		dead  bool
	}
	var insts []*instance
	for _, ev := range feed {
		if ev.src == "S" {
			if ev.t.Vals[1] < startMax {
				insts = append(insts, &instance{start: ev.t, last: ev.t})
			}
			continue
		}
		for _, in := range insts[:len(insts):len(insts)] {
			if in.dead {
				continue
			}
			if ev.t.TS-in.start.TS > window {
				in.dead = true
				continue
			}
			matched, kept := rebind(in.last, ev.t), filter(in.last, ev.t)
			switch {
			case matched:
				if kept {
					insts = append(insts, &instance{start: in.start, last: in.last})
				}
				in.last = ev.t
				j := &stream.Tuple{TS: ev.t.TS}
				j.Vals = append(j.Vals, in.start.Vals...)
				j.Vals = append(j.Vals, ev.t.Vals...)
				out = append(out, j.ContentKey())
			case kept:
			default:
				in.dead = true
			}
		}
	}
	sort.Strings(out)
	return out
}

// µ chains against the reference, with the key l[2] = r[0] in the rebound
// "last" slot. With the negated-key filter a key mismatch keeps the
// instance (the engine indexes the key, core.MuKey); with the filter
// l[3] < r[1] a mismatch must still evaluate it and may delete the
// instance, so the engine scans every instance.
func TestMuAgainstReference(t *testing.T) {
	rising := func(last, ev *stream.Tuple) bool { return last.Vals[1] < ev.Vals[1] }
	sameKey := func(last, ev *stream.Tuple) bool { return last.Vals[0] == ev.Vals[0] }
	rebind := expr.NewAnd2(
		expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}, // last key == event key
		expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}, // last value < event value
	)
	for _, tc := range []struct {
		name   string
		filter expr.Pred2
		ref    func(last, ev *stream.Tuple) bool
	}{
		{"negated key filter", expr.Not2{P: expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}},
			func(last, ev *stream.Tuple) bool { return !sameKey(last, ev) }},
		{"filter not key-safe", expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}, rising},
	} {
		f := func(seed int64, startRaw, winRaw uint8) bool {
			r := rand.New(rand.NewSource(seed))
			startMax := int64(startRaw)%4 + 1
			window := int64(winRaw)%30 + 1
			feed := randFeed(r, 100, 4)
			sel := core.SelectL(expr.ConstCmp{Attr: 1, Op: expr.Lt, C: startMax}, core.Scan("S"))
			got := runSingle(t, core.MuL(rebind, tc.filter, window, sel, core.Scan("T")), feed, true)
			want := refMu(feed, window, startMax,
				func(last, ev *stream.Tuple) bool { return sameKey(last, ev) && rising(last, ev) }, tc.ref)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

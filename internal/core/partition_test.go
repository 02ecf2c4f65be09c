package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/stream"
)

func partCatalog(names ...string) map[string]SourceDecl {
	cat := make(map[string]SourceDecl)
	for _, n := range names {
		cat[n] = SourceDecl{Schema: stream.MustSchema(n, "a", "b", "c")}
	}
	return cat
}

func mustPlan(t *testing.T, cat map[string]SourceDecl, qs ...*Query) *Physical {
	t.Helper()
	p := NewPhysical(cat)
	for _, q := range qs {
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// Stateless plans: every source can be partitioned round-robin and no sink
// is replicated.
func TestAnalyzePartitionStateless(t *testing.T) {
	p := mustPlan(t, partCatalog("S"),
		NewQuery("q0", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, Scan("S"))),
		NewQuery("q1", ProjectL(expr.Identity(3), Scan("S"))),
	)
	pp := AnalyzePartition(p)
	if !pp.Parallel {
		t.Fatal("stateless plan should be parallel")
	}
	if got := pp.Routes["S"].Mode; got != PartitionRoundRobin {
		t.Fatalf("S mode = %v, want round-robin", got)
	}
	if len(pp.ReplicatedSinks) != 0 {
		t.Fatalf("unexpected replicated sinks: %v", pp.ReplicatedSinks)
	}
}

// Equi-keyed sequences (Workload 2 shape): both sources hash on the join
// attribute.
func TestAnalyzePartitionEquiSeq(t *testing.T) {
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	p := mustPlan(t, partCatalog("S", "T"),
		NewQuery("q0", SeqL(pred, 100, Scan("S"), Scan("T"))),
	)
	pp := AnalyzePartition(p)
	if got := pp.Routes["S"]; got.Mode != PartitionHash || got.Attr != 0 {
		t.Fatalf("S route = %+v, want hash(a0)", got)
	}
	if got := pp.Routes["T"]; got.Mode != PartitionHash || got.Attr != 0 {
		t.Fatalf("T route = %+v, want hash(a0)", got)
	}
	if len(pp.ReplicatedSinks) != 0 {
		t.Fatalf("unexpected replicated sinks: %v", pp.ReplicatedSinks)
	}
}

// Unkeyed sequences with FR/AN constants (Workload 1 shape): the instance
// side hashes on the selection attribute and the probing side is routed by
// a content-based multicast table keyed on the right constant.
func TestAnalyzePartitionUnkeyedSeq(t *testing.T) {
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 7}})
	p := mustPlan(t, partCatalog("S", "T"),
		NewQuery("q0", SeqL(pred, 100,
			SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 3}, Scan("S")),
			Scan("T"))),
	)
	pp := AnalyzePartition(p)
	if got := pp.Routes["S"]; got.Mode != PartitionHash || got.Attr != 0 {
		t.Fatalf("S route = %+v, want hash(a0)", got)
	}
	tr := pp.Routes["T"]
	if tr.Mode != PartitionMulticast || tr.Attr != 0 {
		t.Fatalf("T route = %+v, want multicast on a0", tr)
	}
	if got := tr.Table[7]; len(got) != 1 || got[0] != 3 {
		t.Fatalf("T multicast table[7] = %v, want [3]", got)
	}
	if len(tr.Always) != 0 {
		t.Fatalf("T Always = %v, want empty", tr.Always)
	}
	if pp.ReplicatedSinks[0] {
		t.Fatal("sink fed by a partitioned side must not be replicated")
	}
	if !pp.Parallel {
		t.Fatal("plan should remain parallel")
	}
}

// A W1 shape whose probing source is also read by an independent filter
// query cannot multicast (the filter would lose tuples): it broadcasts.
func TestAnalyzePartitionMulticastBlockedByOtherConsumer(t *testing.T) {
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 7}})
	p := mustPlan(t, partCatalog("S", "T"),
		NewQuery("q0", SeqL(pred, 100,
			SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 3}, Scan("S")),
			Scan("T"))),
		NewQuery("q1", SelectL(expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 5}, Scan("T"))),
	)
	pp := AnalyzePartition(p)
	if got := pp.Routes["T"].Mode; got != PartitionBroadcast {
		t.Fatalf("T mode = %v, want broadcast", got)
	}
	if !pp.ReplicatedSinks[1] {
		t.Fatal("filter over broadcast source should be a replicated sink")
	}
}

// A sequence without any selection on the instance side cannot build a
// multicast table; the probe side broadcasts and the instance side stays
// partitioned round-robin.
func TestAnalyzePartitionUnkeyedSeqNoSelect(t *testing.T) {
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 7}})
	p := mustPlan(t, partCatalog("S", "T"),
		NewQuery("q0", SeqL(pred, 100, Scan("S"), Scan("T"))),
	)
	pp := AnalyzePartition(p)
	if got := pp.Routes["S"].Mode; got != PartitionRoundRobin {
		t.Fatalf("S mode = %v, want round-robin", got)
	}
	if got := pp.Routes["T"].Mode; got != PartitionBroadcast {
		t.Fatalf("T mode = %v, want broadcast", got)
	}
}

// Aggregates keyed by a group-by column hash on it; a global aggregate
// (no group-by) forces its source to broadcast and replicates the sink.
func TestAnalyzePartitionAgg(t *testing.T) {
	p := mustPlan(t, partCatalog("S"),
		NewQuery("grouped", AggL(AggSum, 1, 60, []int{0}, Scan("S"))),
	)
	pp := AnalyzePartition(p)
	if got := pp.Routes["S"]; got.Mode != PartitionHash || got.Attr != 0 {
		t.Fatalf("S route = %+v, want hash(a0)", got)
	}

	p2 := mustPlan(t, partCatalog("S"),
		NewQuery("global", AggL(AggSum, 1, 60, nil, Scan("S"))),
	)
	pp2 := AnalyzePartition(p2)
	if got := pp2.Routes["S"].Mode; got != PartitionBroadcast {
		t.Fatalf("S mode = %v, want broadcast", got)
	}
	if !pp2.ReplicatedSinks[0] {
		t.Fatal("global aggregate sink should be replicated")
	}
	if pp2.Parallel {
		t.Fatal("fully broadcast plan is not parallel")
	}
}

// A keyed aggregate that then feeds an unkeyed sequence as the probe side:
// the aggregate's source must broadcast, and a select-only query on the
// same source becomes a replicated sink.
func TestAnalyzePartitionMixedDemotion(t *testing.T) {
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 7}})
	p := mustPlan(t, partCatalog("S", "T"),
		NewQuery("pattern", SeqL(pred, 100, Scan("S"), AggL(AggSum, 1, 60, []int{0}, Scan("T")))),
		NewQuery("filter", SelectL(expr.ConstCmp{Attr: 0, Op: expr.Gt, C: 5}, Scan("T"))),
	)
	pp := AnalyzePartition(p)
	if got := pp.Routes["T"].Mode; got != PartitionBroadcast {
		t.Fatalf("T mode = %v, want broadcast (probe side of unkeyed seq)", got)
	}
	if got := pp.Routes["S"].Mode; got == PartitionBroadcast {
		t.Fatalf("S mode = %v, want partitioned", got)
	}
	// Query 1 reads only the broadcast source through a selection: its
	// results are identical on every shard.
	if !pp.ReplicatedSinks[1] {
		t.Fatal("select over broadcast source should be a replicated sink")
	}
	if pp.ReplicatedSinks[0] {
		t.Fatal("pattern sink is partitioned, not replicated")
	}
}

// A replicated instance side with partitioned events is only sound for
// joins (all pairs emitted). A sequence consumes its instance at the
// first match, so once S is forced to broadcast (by the global agg), the
// seq's event side must broadcast too — scattering T would let each
// shard's instance replica react to its own first event.
func TestAnalyzePartitionReplicatedSeqLeftForcesBroadcastRight(t *testing.T) {
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 1, Op: expr.Gt, C: 0}})
	p := mustPlan(t, partCatalog("S", "T"),
		NewQuery("total", AggL(AggCount, 0, 1000, nil, Scan("S"))),
		NewQuery("q", SeqL(pred, 100, Scan("S"), Scan("T"))),
	)
	pp := AnalyzePartition(p)
	if got := pp.Routes["S"].Mode; got != PartitionBroadcast {
		t.Fatalf("S mode = %v, want broadcast (global agg)", got)
	}
	if got := pp.Routes["T"].Mode; got != PartitionBroadcast {
		t.Fatalf("T mode = %v, want broadcast (seq consumes its instance)", got)
	}
	if !pp.ReplicatedSinks[0] || !pp.ReplicatedSinks[1] {
		t.Fatalf("both sinks should be replicated: %v", pp.ReplicatedSinks)
	}

	// The same shape with a join keeps T partitioned: joins emit every
	// pair, so replicated buffers plus scattered probes stay exact.
	p2 := mustPlan(t, partCatalog("S", "T"),
		NewQuery("total", AggL(AggCount, 0, 1000, nil, Scan("S"))),
		NewQuery("q", JoinL(expr.AttrCmp2{L: 1, Op: expr.Lt, R: 1}, 100, Scan("S"), Scan("T"))),
	)
	pp2 := AnalyzePartition(p2)
	if got := pp2.Routes["T"].Mode; got == PartitionBroadcast {
		t.Fatalf("T mode = %v, want partitioned for the join shape", got)
	}
	if pp2.ReplicatedSinks[1] {
		t.Fatal("join sink over scattered probes is partitioned, not replicated")
	}
}

// µ over an equi key partitions; µ without one must broadcast the event
// side even though a plain sequence could scatter it.
func TestAnalyzePartitionMu(t *testing.T) {
	rebind := expr.NewAnd2(
		expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0},
		expr.AttrCmp2{L: 4, Op: expr.Lt, R: 1},
	)
	filter := expr.Not2{P: expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}}
	p := mustPlan(t, partCatalog("S", "T"),
		NewQuery("mu", MuL(rebind, filter, 1000, Scan("S"), Scan("T"))),
	)
	pp := AnalyzePartition(p)
	if got := pp.Routes["S"]; got.Mode != PartitionHash || got.Attr != 0 {
		t.Fatalf("S route = %+v, want hash(a0)", got)
	}
	if got := pp.Routes["T"]; got.Mode != PartitionHash || got.Attr != 0 {
		t.Fatalf("T route = %+v, want hash(a0)", got)
	}

	// Unkeyed µ: rebind references only the mutable last-event slot.
	rebind2 := expr.NewAnd2(expr.AttrCmp2{L: 4, Op: expr.Lt, R: 1})
	p2 := mustPlan(t, partCatalog("S", "T"),
		NewQuery("mu", MuL(rebind2, filter, 1000, Scan("S"), Scan("T"))),
	)
	pp2 := AnalyzePartition(p2)
	if got := pp2.Routes["T"].Mode; got != PartitionBroadcast {
		t.Fatalf("T mode = %v, want broadcast for unkeyed µ", got)
	}
	if got := pp2.Routes["S"].Mode; got == PartitionBroadcast {
		t.Fatalf("S mode = %v, want partitioned", got)
	}
}

// Shared sources across conflicting uses: an equi-seq proposes a hash
// route, but a second query aggregating the same source without the key in
// its group-by forces broadcast for that source.
func TestAnalyzePartitionConflictingUses(t *testing.T) {
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	p := mustPlan(t, partCatalog("S", "T"),
		NewQuery("seq", SeqL(pred, 100, Scan("S"), Scan("T"))),
		NewQuery("agg", AggL(AggSum, 2, 60, []int{1}, Scan("T"))),
	)
	pp := AnalyzePartition(p)
	// T cannot hash on a0 (the agg groups by a1) nor on a1 (the seq keys
	// on a0): it must broadcast. S may stay partitioned (replicated
	// probes are safe).
	if got := pp.Routes["T"].Mode; got != PartitionBroadcast {
		t.Fatalf("T mode = %v, want broadcast", got)
	}
	if got := pp.Routes["S"].Mode; got == PartitionBroadcast {
		t.Fatalf("S mode = %v, want partitioned", got)
	}
	if !pp.ReplicatedSinks[1] {
		t.Fatal("agg over broadcast source should be a replicated sink")
	}
}

// origin traces attribute lineage through select/project/agg/concat.
func TestPartitionOriginTracing(t *testing.T) {
	p := mustPlan(t, partCatalog("S", "T"),
		NewQuery("q", JoinL(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 1}, 50,
			SelectL(expr.ConstCmp{Attr: 2, Op: expr.Gt, C: 0}, Scan("S")),
			AggL(AggAvg, 2, 60, []int{1}, Scan("T")))),
	)
	pp := AnalyzePartition(p)
	// Join keys: left = σ(S) attr 0 → S.a0; right = agg output attr 1...
	// the agg output is [group(a1), avg] so attr 1 is the aggregate value:
	// untraceable → no hash key for T, and the unkeyed join demotes T.
	if got := pp.Routes["S"].Mode; got == PartitionBroadcast {
		t.Fatalf("S mode = %v, want partitioned", got)
	}
	if got := pp.Routes["T"].Mode; got != PartitionBroadcast {
		t.Fatalf("T mode = %v, want broadcast", got)
	}
}

// MuKey accepts a µ conjunct only when its left side never changes over an
// instance's life and a key mismatch cannot delete the instance.
func TestMuKey(t *testing.T) {
	const lArity = 2
	key := expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0} // last[0] = r[0]
	for _, tc := range []struct {
		name   string
		ac     expr.AttrCmp2
		filter expr.Pred2
		want   int
		ok     bool
	}{
		{"last slot, negated key", key, expr.Not2{P: key}, 0, true},
		{"last slot, true filter", expr.AttrCmp2{L: 3, Op: expr.Eq, R: 1}, expr.True2{}, 1, true},
		{"start part", expr.AttrCmp2{L: 1, Op: expr.Eq, R: 0}, expr.True2{}, 1, true},
		{"last slot of another attr", expr.AttrCmp2{L: 2, Op: expr.Eq, R: 1}, expr.True2{}, 0, false},
		{"last slot past the start", expr.AttrCmp2{L: 4, Op: expr.Eq, R: 2}, expr.True2{}, 0, false},
		{"not an equality", expr.AttrCmp2{L: 2, Op: expr.Lt, R: 0}, expr.True2{}, 0, false},
		{"filter negates another key", key, expr.Not2{P: expr.AttrCmp2{L: 3, Op: expr.Eq, R: 1}}, 0, false},
		{"filter not key-safe", key, expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}, 0, false},
		{"no filter", key, nil, 0, false},
	} {
		d := MuDef(expr.NewAnd2(tc.ac), tc.filter, 100)
		got, ok := MuKey(d, lArity, tc.ac)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("%s: MuKey = %d, %v; want %d, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// hybridPlan builds n §5.3-shaped queries: per-process smoothing, a start
// condition, and µ over (pid, load, last_pid, last_load) with the given
// rebind key and filter.
func hybridPlan(t *testing.T, n int, key expr.AttrCmp2, filter expr.Pred2) *Physical {
	t.Helper()
	cat := map[string]SourceDecl{"CPU": {Schema: stream.MustSchema("CPU", "pid", "load")}}
	var qs []*Query
	for i := 0; i < n; i++ {
		smoothed := AggL(AggAvg, 1, 60, []int{0}, Scan("CPU"))
		start := SelectL(expr.ConstCmp{Attr: 1, Op: expr.Lt, C: int64(50 + i)}, smoothed)
		rebind := expr.NewAnd2(key, expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1})
		mu := MuL(rebind, filter, 3600, start, AggL(AggAvg, 1, 60, []int{0}, Scan("CPU")))
		qs = append(qs, NewQuery(fmt.Sprintf("q%d", i), SelectL(expr.ConstCmp{Attr: 3, Op: expr.Gt, C: 10}, mu)))
	}
	return mustPlan(t, cat, qs...)
}

// The hybrid µ keyed in its "last" slot (l[2] = r[0]) partitions on the
// process: the key equals start[0] for the instance's life.
func TestAnalyzePartitionMuLastSlotKey(t *testing.T) {
	key := expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}
	pp := AnalyzePartition(hybridPlan(t, 3, key, expr.Not2{P: key}))
	if got := pp.Routes["CPU"]; got.Mode != PartitionHash || got.Attr != 0 {
		t.Fatalf("CPU route = %+v, want hash(a0)", got)
	}
	if len(pp.ReplicatedSinks) != 0 {
		t.Fatalf("replicated sinks %v, want none", pp.ReplicatedSinks)
	}

	// The last slot of another attribute is not a key (j != k), and a
	// filter that may delete a mismatched instance forbids partitioning.
	for name, p := range map[string]*Physical{
		"j != k":              hybridPlan(t, 3, expr.AttrCmp2{L: 2, Op: expr.Eq, R: 1}, expr.Not2{P: expr.AttrCmp2{L: 2, Op: expr.Eq, R: 1}}),
		"filter not key-safe": hybridPlan(t, 3, key, expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}),
	} {
		pp := AnalyzePartition(p)
		if got := pp.Routes["CPU"].Mode; got != PartitionBroadcast {
			t.Errorf("%s: CPU mode = %v, want broadcast", name, got)
		}
		if len(pp.ReplicatedSinks) != 3 {
			t.Errorf("%s: replicated sinks %v, want all 3", name, pp.ReplicatedSinks)
		}
	}
}

// A query that needs CPU broadcast cannot join the hash-partitioned hybrid
// plan under its pinned routes.
func TestExtendPartitionRejectsBroadcastOnHybrid(t *testing.T) {
	key := expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}
	prev := AnalyzePartition(hybridPlan(t, 2, key, expr.Not2{P: key}))
	grown := hybridPlan(t, 2, key, expr.Not2{P: key})
	if err := grown.AddQuery(NewQuery("total", AggL(AggSum, 1, 60, nil, Scan("CPU")))); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtendPartition(grown, prev); err == nil || !strings.Contains(err.Error(), "re-routing pinned source \"CPU\"") {
		t.Fatalf("ExtendPartition = %v, want the pinned-route error for CPU", err)
	}
}

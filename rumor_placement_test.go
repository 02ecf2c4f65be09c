package rumor_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	rumor "repro"
	"repro/internal/expr"
	"repro/internal/faultpoint"
)

// The placement tests drive the state-placement step shared by rebalance,
// shard recovery and width-changing restore through the branches that a
// keyed workload never reaches: replicated state (copied onto fresh
// replicas, shed as spare copies) and unpartitioned state (folded onto
// one replica), plus the rebalance transitions out of replicated state.
// Every scenario is checked against an unsharded System fed the same
// stream and the same maintenance operations.

// placementEvent is one pushed tuple.
type placementEvent struct {
	src  string
	ts   int64
	vals []int64
}

// placementFeed draws n tuples over srcs at strictly increasing
// timestamps, a0 in [0, 10) (so a0 = 7 matches a tenth of them) and a1 in
// [0, 100).
func placementFeed(seed int64, n int, srcs ...string) []placementEvent {
	rng := rand.New(rand.NewSource(seed))
	out := make([]placementEvent, n)
	for i := range out {
		out[i] = placementEvent{src: srcs[rng.Intn(len(srcs))], ts: int64(i), vals: []int64{rng.Int63n(10), rng.Int63n(100)}}
	}
	return out
}

// resultLog records every delivered result (query, timestamp and values)
// at or after a timestamp, as a multiset: an aggregate emits one result
// per input whatever its window holds, so only the values show a window
// that lost or duplicated state.
type resultLog struct {
	mu    sync.Mutex
	from  int64
	seen  map[string]int
	total int
}

func newResultLog(from int64) *resultLog { return &resultLog{from: from, seen: make(map[string]int)} }

func (l *resultLog) record(q string, ts int64, vals []int64) {
	if ts < l.from {
		return
	}
	l.mu.Lock()
	l.seen[fmt.Sprintf("%s@%d%v", q, ts, vals)]++
	l.total++
	l.mu.Unlock()
}

// equal fails the test unless got holds exactly the results of want.
func (l *resultLog) equal(t *testing.T, got *resultLog, label string) {
	t.Helper()
	if l.total == 0 {
		t.Fatalf("%s: reference produced no results; test is vacuous", label)
	}
	for k, n := range l.seen {
		if got.seen[k] != n {
			t.Fatalf("%s: result %s ×%d, reference ×%d", label, k, got.seen[k], n)
		}
	}
	if got.total != l.total {
		t.Fatalf("%s: %d results, reference %d", label, got.total, l.total)
	}
}

// pushAll pushes evs.
func pushAll(t *testing.T, sys churnSys, evs []placementEvent) {
	t.Helper()
	for _, ev := range evs {
		if err := sys.Push(ev.src, ev.ts, ev.vals...); err != nil {
			t.Fatal(err)
		}
	}
}

// unkeyedPlan registers the unkeyed event pattern and the global count on
// sys: S round-robin (the pattern's instances are unpartitioned state),
// T broadcast (the count's window is replicated on every shard).
func unkeyedPlan(t *testing.T, sys churnSys) {
	t.Helper()
	for _, s := range []string{"S", "T"} {
		if err := sys.DeclareStream(s, "", "a", "b"); err != nil {
			t.Fatal(err)
		}
	}
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 7}})
	if err := sys.AddQuery("pattern", rumor.Seq(pred, 100, rumor.Scan("S"), rumor.Scan("T"))); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddQuery("total", rumor.Agg(rumor.Count, 1, 50, nil, rumor.Scan("T"))); err != nil {
		t.Fatal(err)
	}
	if err := sys.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
}

// A 3-shard checkpoint of the unkeyed plan restores at widths 1, 2 and 4
// (replicated state copied onto every new replica, unpartitioned state
// folded onto one), and a killed shard is recovered away (its replicated
// copy dropped, its unpartitioned state moved); the results after either
// match the reference.
func TestPlacementRestoreRecover(t *testing.T) {
	defer faultpoint.Reset()
	events := placementFeed(5, 3000, "S", "T")
	mid := len(events) / 2
	ref := rumor.New()
	refAll, refTail := newResultLog(0), newResultLog(events[mid].ts)
	ref.OnResult(func(q string, ts int64, vals []int64) {
		refAll.record(q, ts, vals)
		refTail.record(q, ts, vals)
	})
	unkeyedPlan(t, ref)
	pushAll(t, ref, events)
	counts := func(t *testing.T, sys churnSys, label string) {
		t.Helper()
		for _, q := range []string{"pattern", "total"} {
			if got, want := sys.ResultCount(q), ref.ResultCount(q); got != want || want == 0 {
				t.Fatalf("%s: query %s: %d results, want %d (nonzero)", label, q, got, want)
			}
		}
	}

	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 3, BatchSize: 16})
	unkeyedPlan(t, sys)
	info := sys.PartitionInfo()
	for _, want := range []string{"S: round-robin", "T: broadcast", "replicated sinks: [1]"} {
		if !strings.Contains(info, want) {
			t.Fatalf("scenario requires %q; partition:\n%s", want, info)
		}
	}
	pushAll(t, sys, events[:mid])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := sys.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 4} {
		label := fmt.Sprintf("restore 3->%d", width)
		restored, err := rumor.RestoreSharded(bytes.NewReader(ckpt.Bytes()), rumor.ShardConfig{Shards: width, BatchSize: 16})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		log := newResultLog(events[mid].ts)
		restored.OnResult(log.record)
		pushAll(t, restored, events[mid:])
		if err := restored.Drain(); err != nil {
			t.Fatal(err)
		}
		counts(t, restored, label)
		refTail.equal(t, log, label)
		if err := restored.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Kill one of three shards mid-stream and recover it away. After a
	// drain, the next S tuple reaches one shard only, so that shard's
	// batch is the next replay and the shard dies replaying it; the
	// recovery's catch-up then leaves it holding at least that instance.
	sys = rumor.NewSharded(rumor.ShardConfig{Shards: 3, BatchSize: 16})
	defer sys.Close()
	log := newResultLog(0)
	sys.OnResult(log.record)
	unkeyedPlan(t, sys)
	kill := mid
	for events[kill].src != "S" {
		kill++
	}
	pushAll(t, sys, events[:kill])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm("shard.flush.replay", 1)
	pushAll(t, sys, events[kill:kill+1])
	if err := sys.Drain(); !errors.Is(err, rumor.ErrShardDead) {
		t.Fatalf("drain after the injected kill: %v, want ErrShardDead", err)
	}
	st, err := sys.RecoverShard()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Dropped == 0 || st.Moved == 0 {
		t.Fatalf("recover stats %+v: want 2 shards, replicated copies dropped and unpartitioned state moved", st)
	}
	pushAll(t, sys, events[kill+1:])
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	counts(t, sys, "kill/recover")
	refAll.equal(t, log, "kill/recover")
}

// A plan whose state starts replicated is re-partitioned live: global
// counts broadcast S and T, so the grouped sum's window on T and the
// event pattern's instances on S are replicated on every shard. Removing
// the global counts keeps the routes; a later live add that the pinned
// routes cannot serve re-analyzes the plan, which hash-partitions T
// (replicated → keyed: each replica keeps the keys it now owns) and
// round-robins S (replicated → any: one copy survives).
func TestPlacementRebalanceFromReplicated(t *testing.T) {
	events := placementFeed(9, 4000, "S", "T", "U", "V")
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 7}})
	run := func(sys churnSys, live func(name string, root *rumor.Logical) error) {
		for _, s := range []string{"S", "T", "U", "V"} {
			if err := sys.DeclareStream(s, "", "a", "b"); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []struct {
			name string
			root *rumor.Logical
		}{
			{"sumT", rumor.Agg(rumor.Sum, 1, 50, []int{0}, rumor.Scan("T"))},
			{"pattern", rumor.Seq(pred, 100, rumor.Scan("S"), rumor.Scan("U"))},
			{"countS", rumor.Agg(rumor.Count, 1, 50, nil, rumor.Scan("S"))},
			{"countT", rumor.Agg(rumor.Count, 1, 50, nil, rumor.Scan("T"))},
			{"onesV", rumor.Filter(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 1}, rumor.Scan("V"))},
		} {
			if err := sys.AddQuery(q.name, q.root); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Optimize(rumor.Options{}); err != nil {
			t.Fatal(err)
		}
		third := len(events) / 3
		pushAll(t, sys, events[:third])
		for _, q := range []string{"countS", "countT"} {
			if err := sys.RemoveQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		pushAll(t, sys, events[third:2*third])
		if err := live("countV", rumor.Agg(rumor.Count, 1, 50, nil, rumor.Scan("V"))); err != nil {
			t.Fatal(err)
		}
		pushAll(t, sys, events[2*third:])
	}

	ref := rumor.New()
	refLog := newResultLog(0)
	ref.OnResult(refLog.record)
	run(ref, ref.AddQueryLive)
	for _, shards := range []int{2, 3} {
		sys := rumor.NewSharded(rumor.ShardConfig{Shards: shards, BatchSize: 16})
		log := newResultLog(0)
		sys.OnResult(log.record)
		var before string
		run(sys, func(name string, root *rumor.Logical) error {
			before = sys.PartitionInfo()
			return sys.AddQueryLive(name, root)
		})
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("shards=%d", shards)
		for _, want := range []string{"S: broadcast", "T: broadcast"} {
			if !strings.Contains(before, want) {
				t.Fatalf("%s: scenario requires %q before the live add; partition:\n%s", label, want, before)
			}
		}
		for _, want := range []string{"S: round-robin", "T: hash(a0)"} {
			if after := sys.PartitionInfo(); !strings.Contains(after, want) {
				t.Fatalf("%s: scenario requires %q after the live add; partition:\n%s", label, want, after)
			}
		}
		for _, q := range []string{"sumT", "pattern", "onesV", "countV", "countS", "countT"} {
			if got, want := sys.ResultCount(q), ref.ResultCount(q); got != want || want == 0 {
				t.Fatalf("%s: query %s: %d results, want %d (nonzero)", label, q, got, want)
			}
		}
		refLog.equal(t, log, label)
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

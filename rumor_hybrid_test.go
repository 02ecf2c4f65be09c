package rumor_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	rumor "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// The §5.3 hybrid workload partitions on the process id: µ state is keyed
// (core.MuKey) and moves with its key on Rebalance and restore. This file
// checks it against System per query.

// hybridSeconds groups a perfmon trace into its seconds (each a run of
// one row per process).
func hybridSeconds(events []workload.Event) [][]workload.Event {
	var secs [][]workload.Event
	for off := 0; off < len(events); {
		end := off
		for end < len(events) && events[end].Tuple.TS == events[off].Tuple.TS {
			end++
		}
		secs = append(secs, events[off:end])
		off = end
	}
	return secs
}

// hybridOp is one maintenance step of the hybrid churn script, run before
// the second it is keyed on.
type hybridOp struct {
	add, remove string
	rebalance   bool
	restore     bool
}

// hybridTarget is the API both System and ShardedSystem offer.
type hybridTarget interface {
	DeclareStream(name, label string, attrs ...string) error
	AddQuery(name string, root *rumor.Logical) error
	AddQueryLive(name string, root *rumor.Logical) error
	RemoveQuery(name string) error
	Push(stream string, ts int64, vals ...int64) error
	ResultCount(name string) int64
}

func declareHybrid(t *testing.T, s hybridTarget, qs []*core.Query) {
	t.Helper()
	if err := s.DeclareStream("CPU", "", "pid", "load"); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if err := s.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardedHybridMatrix(t *testing.T) {
	secs := hybridSeconds(workload.PerfTrace{NumProcs: 24, Seconds: 240, Seed: 5}.Events())
	base := workload.DefaultHybrid(6, 0.5).Queries()
	live := map[string]*rumor.Logical{}
	for i, q := range workload.DefaultHybrid(2, 0.3).Queries() {
		live[fmt.Sprintf("live_%d", i)] = q.Root
	}
	script := map[int]hybridOp{
		40:  {add: "live_0"},
		70:  {remove: "hybrid_1"},
		100: {rebalance: true},
		130: {restore: true},
		160: {add: "live_1"},
		190: {remove: "live_0"},
		210: {rebalance: true},
	}
	names := []string{"live_0", "live_1"}
	for _, q := range base {
		names = append(names, q.Name)
	}
	apply := func(s hybridTarget, op hybridOp) {
		t.Helper()
		if op.add != "" {
			if err := s.AddQueryLive(op.add, live[op.add]); err != nil {
				t.Fatal(err)
			}
		}
		if op.remove != "" {
			if err := s.RemoveQuery(op.remove); err != nil {
				t.Fatal(err)
			}
		}
	}

	ref := rumor.New()
	declareHybrid(t, ref, base)
	if err := ref.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	for i, sec := range secs {
		apply(ref, script[i])
		for _, ev := range sec {
			if err := ref.Push("CPU", ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ref.TotalResults() == 0 {
		t.Fatal("hybrid workload produced no results")
	}

	for _, shards := range []int{1, 2, 4} {
		for _, columns := range []bool{true, false} {
			label := fmt.Sprintf("shards=%d columns=%v", shards, columns)
			sys := rumor.NewSharded(rumor.ShardConfig{Shards: shards, BatchSize: 64})
			declareHybrid(t, sys, base)
			if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
				t.Fatal(err)
			}
			if info := sys.PartitionInfo(); info != "CPU: hash(a0)\n" {
				t.Fatalf("%s: partition plan %q, want CPU: hash(a0)", label, info)
			}
			for i, sec := range secs {
				op := script[i]
				apply(sys, op)
				if op.rebalance {
					if _, err := sys.Rebalance(); err != nil {
						t.Fatalf("%s: rebalance: %v", label, err)
					}
				}
				if op.restore {
					var buf bytes.Buffer
					if err := sys.Checkpoint(&buf); err != nil {
						t.Fatalf("%s: checkpoint: %v", label, err)
					}
					if err := sys.Close(); err != nil {
						t.Fatal(err)
					}
					res, err := rumor.RestoreSharded(&buf, rumor.ShardConfig{BatchSize: 64})
					if err != nil {
						t.Fatalf("%s: restore: %v", label, err)
					}
					sys = res
				}
				if columns {
					ts := make([]int64, len(sec))
					cols := [][]int64{make([]int64, len(sec)), make([]int64, len(sec))}
					for r, ev := range sec {
						ts[r], cols[0][r], cols[1][r] = ev.Tuple.TS, ev.Tuple.Vals[0], ev.Tuple.Vals[1]
					}
					if err := sys.PushColumns("CPU", ts, cols); err != nil {
						t.Fatal(err)
					}
					continue
				}
				for _, ev := range sec {
					if err := sys.Push("CPU", ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := sys.Drain(); err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if got, want := sys.ResultCount(n), ref.ResultCount(n); got != want {
					t.Errorf("%s: query %s: %d results, want %d", label, n, got, want)
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A live add that needs CPU broadcast cannot keep the pinned hash route
// (core.ExtendPartition rejects it); the sharded system serves it with a
// scoped rebalance to broadcast, and every count stays exact.
func TestShardedHybridLiveAddNeedsBroadcast(t *testing.T) {
	events := workload.PerfTrace{NumProcs: 16, Seconds: 200, Seed: 9}.Events()
	qs := workload.DefaultHybrid(4, 0.5).Queries()
	ref := rumor.New()
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2})
	defer sys.Close()
	declareHybrid(t, ref, qs)
	declareHybrid(t, sys, qs)
	if err := ref.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	total := core.AggL(core.AggSum, 1, 60, nil, core.Scan("CPU"))
	for i, ev := range events {
		if i == len(events)/2 {
			for _, s := range []hybridTarget{ref, sys} {
				if err := s.AddQueryLive("total", total); err != nil {
					t.Fatal(err)
				}
			}
			if info := sys.PartitionInfo(); !strings.HasPrefix(info, "CPU: broadcast\n") {
				t.Fatalf("partition plan after the add: %q, want CPU: broadcast", info)
			}
		}
		for _, s := range []hybridTarget{ref, sys} {
			if err := s.Push("CPU", ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"total", qs[0].Name, qs[1].Name, qs[2].Name, qs[3].Name} {
		if got, want := sys.ResultCount(n), ref.ResultCount(n); got != want || want == 0 {
			t.Errorf("query %s: %d results, want %d (nonzero)", n, got, want)
		}
	}
}

// PushColumns hands its runs to the shard workers before it returns: on an
// idle system, the results of one small batch reach OnResult with no
// further push and no Drain.
func TestShardedPushColumnsHandsOver(t *testing.T) {
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2})
	defer sys.Close()
	if err := sys.ExecScript(perfScript); err != nil {
		t.Fatal(err)
	}
	// Callbacks are sequenced across shards, so n needs no lock.
	n, all := 0, make(chan struct{})
	sys.OnResult(func(string, int64, []int64) {
		if n++; n == 16 {
			close(all)
		}
	})
	if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	// Eight processes at load 95: each passes both hot and warm.
	ts := make([]int64, 8)
	cols := [][]int64{make([]int64, 8), make([]int64, 8)}
	for i := range ts {
		cols[0][i], cols[1][i] = int64(i), 95
	}
	if err := sys.PushColumns("CPU", ts, cols); err != nil {
		t.Fatal(err)
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatal("16 results did not arrive within 10s of PushColumns without a Drain")
	}
}

package rumor_test

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	rumor "repro"
)

// frontSys is the shared frontend of System and ShardedSystem.
type frontSys interface {
	churnSys
	Checkpoint(w io.Writer) error
	PlanInfo() rumor.PlanInfo
}

// TestConcurrentMaintenance: both system types serialize maintenance
// internally, so adds, removes and checkpoints may come from several
// goroutines at once; a ShardedSystem also takes pushes meanwhile, and
// ResultCount reads once they have drained.
func TestConcurrentMaintenance(t *testing.T) {
	catalog, qs, events := churnWorkload(t, "w2", 20, 3000, 5)
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			var sys frontSys = rumor.New()
			if sharded {
				ss := rumor.NewSharded(rumor.ShardConfig{Shards: 2, BatchSize: 32})
				defer ss.Close()
				sys = ss
			}
			declareAll(t, sys, catalog)
			for _, q := range qs[:10] {
				if err := sys.AddQuery(q.Name, q.Root); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
				t.Fatal(err)
			}
			push := func() {
				for _, ev := range events {
					if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
						t.Error(err)
						return
					}
				}
			}

			var maint, traffic sync.WaitGroup
			var done atomic.Bool
			if sharded {
				// Counts are read once the pushed tuples have drained; the
				// reads still race the maintenance operations.
				traffic.Add(1)
				go func() {
					defer traffic.Done()
					push()
					if err := sys.(*rumor.ShardedSystem).Drain(); err != nil {
						t.Error(err)
					}
					for !done.Load() {
						_ = sys.ResultCount(qs[0].Name)
						_ = sys.ResultCount("g0_0")
						_ = sys.TotalResults()
					}
				}()
			}
			for g := 0; g < 3; g++ {
				maint.Add(1)
				go func() {
					defer maint.Done()
					for i := 0; i < 6; i++ {
						name := fmt.Sprintf("g%d_%d", g, i)
						if err := sys.AddQueryLive(name, qs[10+(3*g+i)%10].Root); err != nil {
							t.Error(err)
							return
						}
						if err := sys.Checkpoint(io.Discard); err != nil {
							t.Error(err)
							return
						}
						if err := sys.RemoveQuery(name); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			maint.Wait()
			done.Store(true)
			traffic.Wait()
			if !sharded {
				push()
			}
			if n := sys.PlanInfo().Queries; n != 10 {
				t.Fatalf("%d queries after balanced churn, want the 10 base queries", n)
			}
			if err := sys.AddQueryLive("g0_0", qs[10].Root); err != nil {
				t.Fatalf("re-adding a removed name: %v", err)
			}
		})
	}
}

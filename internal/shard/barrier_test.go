package shard

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/stream"
)

// gatedReplica holds its next batch replay until gate closes; with crash
// set, that replay then dies like an injected worker crash. Later replays
// (a recovery's catch-up among them) pass straight through.
type gatedReplica struct {
	replica
	gate  chan struct{}
	crash bool
	armed atomic.Bool
}

func (g *gatedReplica) replayBatch(seq int64, entries []entry) error {
	if g.armed.CompareAndSwap(true, false) {
		<-g.gate
		if g.crash {
			panic(faultpoint.Crash{Name: "test.gated"})
		}
	}
	return g.replica.replayBatch(seq, entries)
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Drain waits for the workers without the ingestion lock, so a recovery
// can reshape the shard set meanwhile. A worker that died during Drain's
// wait and was recovered away in that window must not make Drain mark
// whichever live worker now sits at its old position dead.
func TestDrainSurvivesConcurrentRecovery(t *testing.T) {
	catalog := map[string]core.SourceDecl{"S": {Schema: streamSchema(t, "S")}}
	qs := []*core.Query{core.NewQuery("total", core.AggL(core.AggCount, 0, 1000, nil, core.Scan("S")))}
	ref, sh := buildPair(t, catalog, qs, false, 3)
	defer sh.Close()
	// Shard 0 replays slowly, shard 1 dies; the tuple is broadcast, so
	// both hold a batch when Drain flushes.
	slow := &gatedReplica{replica: sh.workers[0].rep, gate: make(chan struct{})}
	dying := &gatedReplica{replica: sh.workers[1].rep, gate: make(chan struct{}), crash: true}
	slow.armed.Store(true)
	dying.armed.Store(true)
	sh.workers[0].rep, sh.workers[1].rep = slow, dying
	w0, w1 := sh.workers[0], sh.workers[1]
	push := func(ts int64) {
		t.Helper()
		vals := []int64{ts, 1}
		if err := ref.Push("S", &stream.Tuple{TS: ts, Vals: vals}); err != nil {
			t.Fatal(err)
		}
		if err := sh.Push("S", ts, vals); err != nil {
			t.Fatal(err)
		}
	}
	push(0)

	drained := make(chan error, 1)
	go func() { drained <- sh.Drain() }()
	// Drain has posted its markers (shard 1's sits behind the held
	// batch) and released the lock.
	waitFor(t, "drain markers", func() bool {
		if len(w1.ch) != 1 || !sh.mu.TryLock() {
			return false
		}
		sh.mu.Unlock()
		return true
	})
	close(dying.gate)
	<-w1.done

	recovered := make(chan error, 1)
	go func() {
		_, err := sh.RecoverShard()
		recovered <- err
	}()
	// The recovery holds the lock, waiting behind shard 0's held batch
	// with its own marker queued after Drain's.
	waitFor(t, "recovery marker", func() bool { return len(w0.ch) == 2 })
	close(slow.gate)
	if err := <-recovered; err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain after a concurrent recovery: %v", err)
	}
	if n := sh.NumShards(); n != 2 {
		t.Fatalf("%d shards after recovery, want 2", n)
	}
	for ts := int64(1); ts < 20; ts++ {
		push(ts)
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := sh.ResultCount(0), ref.ResultCount(0); got != want || want == 0 {
		t.Fatalf("total = %d, want %d (nonzero)", got, want)
	}
}

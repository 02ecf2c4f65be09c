package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mop"
	"repro/internal/wire"
)

// WithQuiesced runs fn at a batch-queue barrier: ingestion is blocked,
// every worker has acknowledged quiescence, and the caller goroutine owns
// each replica's state registry for the duration. Checkpoint writes and
// state restores build on this — the registries allow destructive-peek
// exports (export-all followed by an in-place re-import) and direct
// imports into freshly built replicas. With remote replicas (NewCluster)
// the registries are RPC adapters, so checkpoints and restores work over
// the wire unchanged.
func (e *Engine) WithQuiesced(fn func(regs []Registry) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("shard: engine closed")
	}
	if err := e.quiesceLocked(false); err != nil {
		return err
	}
	return fn(e.registriesLocked())
}

// ImportGroups imports the operator state of a checkpoint written at width
// from into this freshly built engine of a different width, at a barrier.
// The payloads of each (op, side) go through the placement step of
// rebalance and recovery (mover.place) under the engine's partition plan:
// keyed and multicast state re-splits by key ownership at the new width,
// replicated state is copied onto every replica, and unpartitioned state
// lands on shard 0.
func (e *Engine) ImportGroups(groups []wire.GroupState, from int) error {
	return e.WithQuiesced(func(regs []Registry) error {
		type opSide struct{ op, side int }
		var order []opSide
		buckets := make(map[opSide][]*mop.StatePayload)
		for _, g := range groups {
			if g.Shard < 0 || g.Shard >= from {
				return fmt.Errorf("shard: checkpoint state for shard %d of %d", g.Shard, from)
			}
			if g.Payload.Len() == 0 {
				continue
			}
			k := opSide{g.OpID, g.Payload.Side()}
			if _, ok := buckets[k]; !ok {
				order = append(order, k)
			}
			buckets[k] = append(buckets[k], g.Payload)
		}
		m := &mover{regs: regs, part: e.part, fresh: true}
		dists := e.part.OpSideDists(e.plan)
		for _, k := range order {
			d := core.SideDistAt(dists, k.op, k.side)
			if err := m.place(k.op, d, d, buckets[k]); err != nil {
				return err
			}
		}
		m.commit()
		return nil
	})
}

// FrozenCounts returns a copy of the frozen final counts of queries
// removed by live deltas, keyed by query ID.
func (e *Engine) FrozenCounts() map[int]int64 {
	e.statsMu.RLock()
	defer e.statsMu.RUnlock()
	out := make(map[int]int64, len(e.frozen))
	for qid, n := range e.frozen {
		out[qid] = n
	}
	return out
}

// RestoreCounts seeds the merged-count state of a freshly built engine
// from a checkpoint: base holds each live query's accumulated count (the
// replica counters start at zero), frozen the final counts of queries
// removed before the checkpoint. maxQuery is raised to cover every seeded
// ID so TotalResults keeps counting frozen queries whose IDs exceed the
// restored plan's.
func (e *Engine) RestoreCounts(base, frozen map[int]int64) {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	for qid, n := range base {
		e.base[qid] = n
		if qid > e.maxQuery {
			e.maxQuery = qid
		}
	}
	if len(frozen) > 0 && e.frozen == nil {
		e.frozen = make(map[int]int64, len(frozen))
	}
	for qid, n := range frozen {
		e.frozen[qid] = n
		if qid > e.maxQuery {
			e.maxQuery = qid
		}
	}
}

package shard

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/mop"
	"repro/internal/obs"
)

// ErrPartialMigration reports a state migration that failed mid-flight and
// was rolled back: every touched group side was restored from its
// pre-migration snapshot, the old routing stays in effect, and the engine
// remains fully usable. The wrapped cause describes the failed step.
var ErrPartialMigration = errors.New("shard: partial state migration rolled back")

// This file implements online shard rebalancing: a drain / re-hash /
// resume protocol over the uniform operator state registry (package mop).
//
// Rebalance runs at the same batch-queue barrier as a live plan delta:
// ingestion blocks, every worker acknowledges quiescence, and the caller
// goroutine owns every replica. It then compares the distribution of each
// stateful operator's inputs under the old and new partition plans
// (core.OpSideDists) and moves exactly the state that is out of place:
//
//	old \ new     keyed                    replicated            any
//	keyed/any     export misplaced items,  export all, import a  keep in
//	              round-robin split keys   copy into every       place
//	              across their owners      replica
//	replicated    local keep-if-owner      keep                  keep on
//	              (identical store order                         shard 0,
//	              on every replica — no                          drop the
//	              transfer at all)                               other
//	                                                             copies
//
// The export of each row is the rebalance's own; where the exported items
// go is decided by the placement step that shard recovery and
// width-changing restore share (mover.place).
//
// Counting survives sink transitions (partitioned ↔ replicated) because
// every rebalance folds the replica counters into a per-query base and
// resets them (rebaseCountsLocked).

// RebalanceStats reports one online rebalance.
type RebalanceStats struct {
	Moved   int           // state items imported on a new owner
	Dropped int           // replicated copies deduplicated away
	Keys    int           // keys with explicit placements afterwards
	Pause   time.Duration // ingestion pause, barrier to resume
	Version int           // routing-table version now in effect
}

// Rebalance drains the batch queues, migrates stored operator state to its
// placement under part, swaps the routing tables, and resumes ingestion.
// part must share the current plan's routes (same modes and attributes) —
// it typically differs only in its key-placement overlay; pass nil to let
// the engine build a balanced overlay from the keyed-state histograms of
// its replicas (steered by the observed per-key state weights). Concurrent
// Push/PushBatch callers block for the duration; maintenance operations
// must be serialized by the caller.
func (e *Engine) Rebalance(part *core.PartitionPlan) (RebalanceStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	var st RebalanceStats
	if e.closed {
		return st, fmt.Errorf("shard: engine closed")
	}
	if err := e.quiesceLocked(false); err != nil {
		return st, err
	}
	regs := e.registriesLocked()
	oldD := e.part.OpSideDists(e.plan)
	if part == nil {
		part = e.planMovesLocked(regs, oldD)
	}
	st, err := e.migrateStateLocked(regs, oldD, part)
	if err != nil {
		return st, err
	}
	if err := e.rebaseCountsLocked(); err != nil {
		e.poisonLocked()
		return st, fmt.Errorf("shard: counter rebase failed, engine disabled: %w", err)
	}
	e.statsMu.Lock()
	e.part = part
	e.statsMu.Unlock()
	e.rebuildSourceRoutes(part)
	e.snapshotBusyLocked()
	st.Pause = time.Since(start)
	st.Version = part.RoutingVersion()
	if part.Table != nil {
		st.Keys = len(part.Table.Moves)
	}
	obs.RecordEvent(obs.EvRebalance,
		fmt.Sprintf("moved=%d dropped=%d keys=%d version=%d", st.Moved, st.Dropped, st.Keys, st.Version),
		st.Pause)
	return st, nil
}

// registriesLocked harvests each replica's state registry — direct for
// local replicas, the RPC adapter for remote ones. Called at a barrier
// with mu held.
func (e *Engine) registriesLocked() []Registry {
	regs := make([]Registry, len(e.workers))
	for i, w := range e.workers {
		regs[i] = w.rep.registry()
	}
	return regs
}

// snapshotBusyLocked resets the busy-drift baseline after a rebalance.
func (e *Engine) snapshotBusyLocked() {
	for i, w := range e.workers {
		e.busyBase[i] = w.busyNS.Load()
	}
}

// Imbalance returns the busy-time imbalance across shards since the last
// rebalance: slowest shard's busy time divided by the mean (1 = flat).
// Safe to call at any time.
func (e *Engine) Imbalance() float64 {
	var total, maxBusy int64
	for i, w := range e.workers {
		b := w.busyNS.Load() - e.busyBase[i]
		total += b
		if b > maxBusy {
			maxBusy = b
		}
	}
	if total <= 0 {
		return 1
	}
	mean := float64(total) / float64(len(e.workers))
	return float64(maxBusy) / mean
}

// MaybeRebalance rebalances when the busy-time drift since the last
// rebalance exceeds maxImbalance (e.g. 1.25 = slowest shard 25% above the
// mean). It reports whether a rebalance ran.
func (e *Engine) MaybeRebalance(maxImbalance float64) (bool, RebalanceStats, error) {
	if len(e.workers) == 1 || e.Imbalance() <= maxImbalance {
		return false, RebalanceStats{}, nil
	}
	st, err := e.Rebalance(nil)
	return true, st, err
}

// touchedSide is one (group, side) the transition matrix will act on, with
// its pre-migration snapshot (one payload per replica).
type touchedSide struct {
	ref    mop.GroupRef
	side   int
	od, nd core.SideDist
	snap   []*mop.StatePayload
}

// transitionTouches reports whether the transition matrix moves or drops
// anything for an old→new distribution pair.
func transitionTouches(od, nd core.SideDist) bool {
	switch {
	case nd.Dist == core.DistKeyed:
		return true
	case nd.Dist == core.DistReplicated && od.Dist != core.DistReplicated:
		return true
	case nd.Dist == core.DistAny && od.Dist == core.DistReplicated:
		return true
	}
	return false
}

// migrateStateLocked moves stored operator state from its placement under
// the current routes (whose distributions are oldD) to its placement
// under newPart. Called at a barrier with mu held; the plan must already
// reflect any delta applied to the replicas.
//
// Before anything moves, every group side the transition matrix will touch
// is snapshotted with a destructive peek (Peek), whose payload survives as
// a restore point referencing the very tuples in the stores. A
// mid-migration failure then rolls the touched sides back to their
// snapshots and returns ErrPartialMigration with the engine fully usable;
// the engine is poisoned only if the rollback itself fails. Payload
// discards (which release µ pooled state) are deferred until the whole
// migration has succeeded, because the snapshots alias that state.
func (e *Engine) migrateStateLocked(regs []Registry, oldD map[int][]core.SideDist, newPart *core.PartitionPlan) (RebalanceStats, error) {
	if len(e.workers) == 1 {
		return RebalanceStats{}, nil
	}
	newD := newPart.OpSideDists(e.plan)
	var touched []*touchedSide
	for _, ref := range regs[0].Groups() {
		for _, side := range ref.Sides {
			t := &touchedSide{ref: ref, side: side,
				od: core.SideDistAt(oldD, ref.OpID, side), nd: core.SideDistAt(newD, ref.OpID, side)}
			if !transitionTouches(t.od, t.nd) {
				continue
			}
			for _, reg := range regs {
				pl, err := Peek(reg, ref.OpID, side, -1)
				if err != nil && pl != nil {
					e.poisonLocked()
					return RebalanceStats{}, fmt.Errorf("shard: snapshot re-import failed, engine disabled: %w", err)
				}
				if err != nil {
					// Unknown operator: nothing was exported, the engine
					// is unchanged.
					return RebalanceStats{}, err
				}
				t.snap = append(t.snap, pl)
			}
			touched = append(touched, t)
		}
	}
	m := &mover{regs: regs, part: newPart, faults: true}
	for _, t := range touched {
		if err := m.migrate(t); err != nil {
			if rbErr := rollbackMigration(regs, touched); rbErr != nil {
				e.poisonLocked()
				return RebalanceStats{}, fmt.Errorf("shard: state migration failed (%v), rollback failed, engine disabled: %w", err, rbErr)
			}
			return RebalanceStats{}, fmt.Errorf("%w: %w", ErrPartialMigration, err)
		}
	}
	m.commit()
	return RebalanceStats{Moved: m.moved, Dropped: m.dropped}, nil
}

// rollbackMigration restores every touched group side from its snapshot:
// whatever the partial migration left on a replica is cleared (exported
// and dropped — never discarded, since those items alias the snapshot
// being restored; clones imported by copy are simply released to the
// garbage collector) and the snapshot payload re-imported in place.
func rollbackMigration(regs []Registry, touched []*touchedSide) error {
	// Clear every touched side on every replica first (a half-migrated
	// item may sit on a replica other than its snapshot home), then
	// restore the snapshots.
	for _, t := range touched {
		for _, reg := range regs {
			if _, err := reg.Export(t.ref.OpID, t.side, -1, exportAll); err != nil {
				return err
			}
		}
	}
	for _, t := range touched {
		for i, reg := range regs {
			if t.snap[i].Len() == 0 {
				continue
			}
			if err := reg.Import(t.ref.OpID, t.snap[i], false); err != nil {
				return err
			}
		}
	}
	return nil
}

// migrate applies the transition matrix to one touched (group, side): each
// replica exports the items that leave it, and place puts them where the
// new distribution wants them.
func (m *mover) migrate(t *touchedSide) error {
	n := len(m.regs)
	keyAttr := -1
	if t.nd.Dist == core.DistKeyed {
		keyAttr = t.nd.Attr
	}
	leaving := make([]*mop.StatePayload, n)
	for i, reg := range m.regs {
		sel := exportAll
		switch {
		case t.nd.Dist == core.DistKeyed && t.od.Dist == core.DistReplicated:
			// Every replica holds an identical copy in identical store
			// order, so each keeps exactly the items the new placement
			// assigns to it (per-key round-robin over the store ordinal)
			// and sheds the rest — no transfer at all.
			sel = func(key int64, ord int) bool {
				owners := m.part.Owners(key, n)
				return owners[ord%len(owners)] != i
			}
		case t.nd.Dist == core.DistKeyed:
			sel = m.misplaced(i)
		case t.nd.Dist == core.DistAny && i == 0:
			continue // replicated copies collapse to shard 0's
		}
		if err := faultpoint.Error("shard.rebalance.export"); err != nil {
			return err
		}
		pl, err := reg.Export(t.ref.OpID, t.side, keyAttr, sel)
		if err != nil {
			return err
		}
		leaving[i] = pl
	}
	return m.place(t.ref.OpID, t.od, t.nd, leaving)
}

// exportAll is the export selection that takes every item.
func exportAll(int64, int) bool { return true }

// Peek exports every item of one (op, side) and re-imports it in place:
// the store is left unchanged (up to tombstone compaction, which carries
// no state) while the payload survives as a copy of the state that aliases
// the stored tuples. keyAttr tags the items with their partition keys (-1
// leaves them untagged). A failed export returns a nil payload and leaves
// the store untouched; a failed re-import returns the payload with the
// error — its items are then out of the store.
func Peek(reg Registry, opID, side, keyAttr int) (*mop.StatePayload, error) {
	pl, err := reg.Export(opID, side, keyAttr, exportAll)
	if err != nil {
		return nil, err
	}
	if pl.Len() > 0 {
		err = reg.Import(opID, pl, false)
	}
	return pl, err
}

// mover is the placement step every state migration shares — rebalance,
// shard recovery, and a restore into a different width: it puts the state
// items that left their replicas onto target replicas under a partition
// plan, and keeps the books of the migration.
type mover struct {
	regs   []Registry          // targets, by shard index at the target width
	part   *core.PartitionPlan // key placement at the target width
	fresh  bool                // targets start empty (restore)
	faults bool                // fire shard.rebalance.import before each import
	codec  bool                // ship each placed payload through the wire codec

	moved, dropped, bytes int
	discards              []*mop.StatePayload // released by commit
}

// misplaced selects the items whose owner set at the target width is not
// exactly target i: they leave, everything else stays in place.
func (m *mover) misplaced(i int) func(key int64, ord int) bool {
	return func(key int64, _ int) bool {
		owners := m.part.Owners(key, len(m.regs))
		return !(len(owners) == 1 && owners[0] == i)
	}
}

// place puts the items that left their replicas for one (op, side) where
// to, the side's distribution at the target width, wants them; from is its
// distribution where they left. From a replicated side each payload is a
// full copy: targets that start empty each get one, and the copies that
// left are spare and discarded. Otherwise the payloads are disjoint and
// merge into timestamp order. Keyed and multicast items then split by key
// ownership, duplicate copies of a key round-robin across its owner set;
// replicated items are copied onto every target; unpartitioned items go
// to target 0.
func (m *mover) place(opID int, from, to core.SideDist, leaving []*mop.StatePayload) error {
	if from.Dist == core.DistReplicated {
		for i := 0; m.fresh && len(leaving) > 0 && i < len(m.regs); i++ {
			if err := m.put(i, opID, leaving[0], true); err != nil {
				return err
			}
		}
		for _, pl := range leaving {
			m.dropped += pl.Len()
			m.discards = append(m.discards, pl)
		}
		return nil
	}
	if m.codec {
		for i, pl := range leaving {
			out, nbytes, err := reencodePayload(pl)
			if err != nil {
				return err
			}
			m.bytes += nbytes
			leaving[i] = out
		}
	}
	merged := mop.MergePayloads(leaving)
	switch to.Dist {
	case core.DistKeyed, core.DistMulticast:
		n := len(m.regs)
		rr := make(map[int64]int)
		parts := merged.SplitBy(n, func(key int64) int {
			owners := m.part.Owners(key, n)
			k := rr[key]
			rr[key] = k + 1
			return owners[k%len(owners)]
		})
		for i, pl := range parts {
			if err := m.put(i, opID, pl, false); err != nil {
				return err
			}
		}
	case core.DistReplicated:
		for i := range m.regs {
			if err := m.put(i, opID, merged, true); err != nil {
				return err
			}
		}
		m.discards = append(m.discards, merged)
	default:
		return m.put(0, opID, merged, false)
	}
	return nil
}

// put imports a non-empty payload on target i.
func (m *mover) put(i, opID int, pl *mop.StatePayload, copied bool) error {
	if pl.Len() == 0 {
		return nil
	}
	if m.faults {
		if err := faultpoint.Error("shard.rebalance.import"); err != nil {
			return err
		}
	}
	if err := m.regs[i].Import(opID, pl, copied); err != nil {
		return fmt.Errorf("importing operator %d state on shard %d: %w", opID, i, err)
	}
	m.moved += pl.Len()
	return nil
}

// commit releases the pooled state of the payloads the migration shed or
// copied; it runs once nothing can roll back to them.
func (m *mover) commit() {
	for _, pl := range m.discards {
		pl.Discard()
	}
}

// planMovesLocked builds a balanced key-placement overlay from the keyed
// state actually stored on the replicas: per-key item counts are the load
// proxy (they are what busy time scales with on the stateful path). Called
// at a barrier with mu held, over the registries and distributions the
// migration will reuse.
func (e *Engine) planMovesLocked(regs []Registry, dists map[int][]core.SideDist) *core.PartitionPlan {
	n := len(e.workers)
	hist := make(map[int64]int64)
	for _, reg := range regs {
		for _, ref := range reg.Groups() {
			for _, side := range ref.Sides {
				d := core.SideDistAt(dists, ref.OpID, side)
				if d.Dist != core.DistKeyed {
					continue
				}
				reg.Histogram(ref.OpID, side, d.Attr, hist)
			}
		}
	}
	moves := buildMoves(hist, n, e.part.SplitSafe(e.plan))
	return e.part.WithMoves(moves)
}

// buildMoves assigns the weighted keys to shards with a deterministic LPT
// (longest-processing-time) greedy: keys in descending weight order each
// go to the least-loaded shard, and a key heavier than the per-shard
// target is split across several shards when splitting is safe. Only keys
// that leave their default hash placement enter the overlay.
func buildMoves(hist map[int64]int64, n int, splitOK bool) map[int64][]int {
	if len(hist) == 0 || n <= 1 {
		return nil
	}
	keys := make([]int64, 0, len(hist))
	var total int64
	for k, w := range hist {
		keys = append(keys, k)
		total += w
	}
	sort.Slice(keys, func(i, j int) bool {
		wi, wj := hist[keys[i]], hist[keys[j]]
		if wi != wj {
			return wi > wj
		}
		return keys[i] < keys[j]
	})
	target := total / int64(n)
	if target < 1 {
		target = 1
	}
	load := make([]int64, n)
	leastLoaded := func() int {
		best := 0
		for i := 1; i < n; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		return best
	}
	moves := make(map[int64][]int)
	for _, k := range keys {
		w := hist[k]
		if splitOK && w > target {
			parts := int((w + target - 1) / target)
			if parts > n {
				parts = n
			}
			owners := make([]int, 0, parts)
			used := make(map[int]bool, parts)
			for p := 0; p < parts; p++ {
				// Least-loaded shard not already an owner of this key.
				best := -1
				for i := 0; i < n; i++ {
					if used[i] {
						continue
					}
					if best < 0 || load[i] < load[best] {
						best = i
					}
				}
				used[best] = true
				owners = append(owners, best)
				load[best] += w / int64(parts)
			}
			sort.Ints(owners)
			if !(len(owners) == 1 && owners[0] == core.ShardOfKey(k, n)) {
				moves[k] = owners
			}
			continue
		}
		s := leastLoaded()
		load[s] += w
		if s != core.ShardOfKey(k, n) {
			moves[k] = []int{s}
		}
	}
	if len(moves) == 0 {
		return nil
	}
	return moves
}

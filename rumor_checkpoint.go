package rumor

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Checkpoint / restore: a full snapshot of a running system — the live
// physical plan (serialized structurally, not re-derived: the rule engine
// is free to make different tie-breaking choices on a re-optimization, and
// restore must reproduce operator and stream identity exactly), the
// partition plan with its routing-table version, every query's result
// counters, the frozen counts of removed queries, and every stateful
// operator group's stored window/instances as wire-encoded payloads.
//
// State is captured with a destructive peek: the uniform registry's export
// removes items, so each group side is exported in full and immediately
// re-imported in place — a merge into the emptied store that preserves
// order exactly — while the payload survives to be encoded. The system
// must be quiescent: a System relies on its one goroutine not pushing
// meanwhile; a ShardedSystem takes the same batch-queue barrier as live
// deltas, so concurrent pushers just block for the duration. Both types
// write through one Checkpoint and rebuild their books through one
// restore; only the executor's snapshot and state import differ.
//
// A sharded checkpoint records payloads per replica. Restoring into the
// same shard count is positional (keyed placement, the routing overlay,
// and replicated copies land exactly where they were); restoring into a
// different count redistributes at import time through the placement
// step rebalance and shard recovery share (shard.Engine.ImportGroups),
// under a fresh routing table (the overlay's shard indices are
// meaningless at the new width). Checkpoints also capture and restore
// remote replicas: the registry handles a cluster deployment
// (NewCluster) ship state over the same RPCs the rebalancer uses.

// ErrShardDead reports that a shard worker died; recover with
// (*ShardedSystem).RecoverShard or restore from a checkpoint.
var ErrShardDead = shard.ErrShardDead

// ErrPartialMigration reports a mid-flight state-migration failure that
// was rolled back, leaving the engine usable under its old routing.
var ErrPartialMigration = shard.ErrPartialMigration

// exportGroups destructively peeks (shard.Peek) every stored group side
// of one replica registry and appends the surviving payload (tagged with
// the replica index) to groups. Keyed and multicast sides export under
// their real key attribute so the payload items carry partition keys — a
// restore into a different shard count re-hashes on them.
func exportGroups(reg shard.Registry, shardIdx int, dists map[int][]core.SideDist, groups *[]wire.GroupState) error {
	for _, ref := range reg.Groups() {
		for _, side := range ref.Sides {
			keyAttr := -1
			if d := core.SideDistAt(dists, ref.OpID, side); d.Dist == core.DistKeyed || d.Dist == core.DistMulticast {
				keyAttr = d.Attr
			}
			pl, err := shard.Peek(reg, ref.OpID, side, keyAttr)
			if err != nil {
				return err
			}
			if pl.Len() == 0 {
				continue
			}
			*groups = append(*groups, wire.GroupState{Shard: shardIdx, OpID: ref.OpID, Payload: pl})
		}
	}
	return nil
}

func frozenNames(removed map[string]int64) []wire.NamedCount {
	names := make([]string, 0, len(removed))
	for name := range removed {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]wire.NamedCount, len(names))
	for i, name := range names {
		out[i] = wire.NamedCount{Name: name, Count: removed[name]}
	}
	return out
}

// Checkpoint writes a full snapshot of the optimized system to w. The
// snapshot is self-contained: Restore (RestoreSharded for a
// ShardedSystem) rebuilds an equivalent system with identical plan shape,
// query IDs, result counts, and operator state. It is serialized against
// other maintenance operations. A System's caller must not Push
// concurrently; a ShardedSystem captures its replicas at the same
// batch-queue barrier as a live delta — concurrent pushers block for the
// duration — and also records the partition plan (routing-table version
// and key-placement overlay included).
func (f *front) Checkpoint(w io.Writer) error {
	if f.exec == nil {
		return errNotOptimized("Checkpoint")
	}
	f.churnMu.Lock()
	defer f.churnMu.Unlock()
	if err := faultpoint.Error("checkpoint.write"); err != nil {
		return err
	}
	start := time.Now()
	c := &wire.Checkpoint{
		Channels:          f.ropts.Channels,
		ChannelMinStreams: f.ropts.ChannelMinStreams,
		Plan:              f.plan.Snapshot(),
	}
	f.nameMu.RLock()
	c.Frozen = frozenNames(f.removed)
	queries := append([]*core.Query(nil), f.queries...)
	f.nameMu.RUnlock()
	if err := f.exec.snapshot(c, queries); err != nil {
		return err
	}
	if err := wire.WriteCheckpoint(w, c); err != nil {
		return err
	}
	obs.RecordEvent(obs.EvCheckpoint,
		fmt.Sprintf("shards=%d groups=%d", c.Shards, len(c.Groups)), time.Since(start))
	return nil
}

func (s *System) snapshot(c *wire.Checkpoint, _ []*core.Query) error {
	c.Shards = 1
	for qid, n := range s.eng.SnapshotCounts() {
		if n != 0 {
			c.Counts = append(c.Counts, wire.QueryCount{ID: qid, Count: n})
		}
	}
	dists := core.AnalyzePartition(s.plan).OpSideDists(s.plan)
	return exportGroups(s.eng.StateRegistry(), 0, dists, &c.Groups)
}

func (s *ShardedSystem) snapshot(c *wire.Checkpoint, queries []*core.Query) error {
	c.Shards = s.sh.NumShards()
	c.Partition = s.sh.PartitionPlan()
	dists := c.Partition.OpSideDists(s.plan)
	return s.sh.WithQuiesced(func(regs []shard.Registry) error {
		sort.Slice(queries, func(i, j int) bool { return queries[i].ID < queries[j].ID })
		for _, q := range queries {
			if n := s.sh.ResultCount(q.ID); n != 0 {
				c.Counts = append(c.Counts, wire.QueryCount{ID: q.ID, Count: n})
			}
		}
		frozen := s.sh.FrozenCounts()
		ids := make([]int, 0, len(frozen))
		for qid := range frozen {
			ids = append(ids, qid)
		}
		sort.Ints(ids)
		for _, qid := range ids {
			c.FrozenByID = append(c.FrozenByID, wire.QueryCount{ID: qid, Count: frozen[qid]})
		}
		for i, reg := range regs {
			if err := exportGroups(reg, i, dists, &c.Groups); err != nil {
				return err
			}
		}
		return nil
	})
}

// restore rebuilds the books of a checkpoint — catalog, query set, frozen
// counts, and optimizer options — and returns its plan, ready for start.
func (f *front) restore(c *wire.Checkpoint) (*core.Physical, error) {
	if c.Plan == nil {
		return nil, fmt.Errorf("rumor: checkpoint has no plan")
	}
	catalog, err := c.Plan.CatalogDecls()
	if err != nil {
		return nil, fmt.Errorf("rumor: %w", err)
	}
	plan, err := core.RebuildPhysical(catalog, c.Plan)
	if err != nil {
		return nil, fmt.Errorf("rumor: rebuilding plan: %w", err)
	}
	f.catalog = catalog
	f.ropts = rules.Options{Channels: c.Channels, ChannelMinStreams: c.ChannelMinStreams}
	for _, q := range plan.Queries {
		f.register(q)
	}
	for _, fc := range c.Frozen {
		f.removed[fc.Name] = fc.Count
	}
	return plan, nil
}

// importGroups restores a checkpoint's operator state positionally: each
// payload lands on the replica that wrote it.
func importGroups(groups []wire.GroupState, regs []shard.Registry) error {
	for _, g := range groups {
		if g.Shard < 0 || g.Shard >= len(regs) {
			return fmt.Errorf("rumor: checkpoint state for shard %d of %d", g.Shard, len(regs))
		}
		if g.Payload.Len() == 0 {
			continue
		}
		if err := regs[g.Shard].Import(g.OpID, g.Payload, false); err != nil {
			return fmt.Errorf("rumor: restoring operator %d state on shard %d: %w", g.OpID, g.Shard, err)
		}
	}
	return nil
}

// Restore reads a checkpoint written by (*System).Checkpoint and rebuilds
// the running system: same plan shape and IDs, same result counts, same
// operator state. Sharded checkpoints must go through RestoreSharded.
func Restore(r io.Reader) (*System, error) {
	start := time.Now()
	c, err := wire.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if c.Partition != nil || c.Shards > 1 {
		return nil, fmt.Errorf("rumor: sharded checkpoint (%d shards); use RestoreSharded", c.Shards)
	}
	s := New()
	plan, err := s.restore(c)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(plan)
	if err != nil {
		return nil, err
	}
	if err := importGroups(c.Groups, []shard.Registry{eng.StateRegistry()}); err != nil {
		return nil, err
	}
	var counts []int64
	for _, qc := range c.Counts {
		if qc.ID < 0 {
			return nil, fmt.Errorf("rumor: negative query ID %d in checkpoint", qc.ID)
		}
		if qc.ID >= len(counts) {
			counts = append(counts, make([]int64, qc.ID+1-len(counts))...)
		}
		counts[qc.ID] = qc.Count
	}
	eng.RestoreCounts(counts)
	s.eng = eng
	s.start(plan, s)
	obs.RecordEvent(obs.EvRestore, fmt.Sprintf("shards=1 groups=%d", len(c.Groups)), time.Since(start))
	return s, nil
}

// RestoreSharded reads a checkpoint written by (*ShardedSystem).Checkpoint
// and rebuilds the running sharded system. With cfg.Shards zero (or equal
// to the checkpoint's count) the restore is positional: per-replica
// payloads land on the shard that wrote them, the key-placement overlay
// included. A different cfg.Shards redistributes at import time by the
// placement rules of rebalance and shard recovery (README, "Online
// rebalancing"): keyed and multicast state re-splits by key ownership at
// the new width (the checkpoint payloads carry partition keys),
// replicated state is copied onto every replica, and unpartitioned state
// lands on shard 0 — under a fresh routing table with a bumped version,
// since the overlay's shard indices do not survive a width change.
// Counters are width-independent (replica counters restore as merged
// bases). Unsharded checkpoints restore too, as a 1-shard system or
// redistributed across cfg.Shards.
func RestoreSharded(r io.Reader, cfg ShardConfig) (*ShardedSystem, error) {
	start := time.Now()
	c, err := wire.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if c.Shards < 1 {
		return nil, fmt.Errorf("rumor: checkpoint shard count %d", c.Shards)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = c.Shards
	}
	s := NewSharded(cfg)
	plan, err := s.restore(c)
	if err != nil {
		return nil, err
	}
	part := c.Partition
	if part == nil {
		if c.Shards > 1 {
			return nil, fmt.Errorf("rumor: %d-shard checkpoint has no partition plan", c.Shards)
		}
		part = core.AnalyzePartition(plan)
	}
	if cfg.Shards != c.Shards {
		// The overlay's explicit key moves name shards of the old width;
		// start the new width from pure hash placement, one version later.
		part = part.WithMoves(nil)
	}
	sh, err := shard.New(plan, part, s.shardConfig())
	if err != nil {
		return nil, err
	}
	if cfg.Shards == c.Shards {
		err = sh.WithQuiesced(func(regs []shard.Registry) error { return importGroups(c.Groups, regs) })
	} else {
		err = sh.ImportGroups(c.Groups, c.Shards)
	}
	if err != nil {
		_ = sh.Close()
		return nil, err
	}
	base := make(map[int]int64, len(c.Counts))
	for _, qc := range c.Counts {
		base[qc.ID] = qc.Count
	}
	frozen := make(map[int]int64, len(c.FrozenByID))
	for _, qc := range c.FrozenByID {
		frozen[qc.ID] = qc.Count
	}
	sh.RestoreCounts(base, frozen)
	s.sh, s.part = sh, part
	s.start(plan, s)
	obs.RecordEvent(obs.EvRestore,
		fmt.Sprintf("shards=%d from=%d groups=%d", cfg.Shards, c.Shards, len(c.Groups)), time.Since(start))
	return s, nil
}

// RoutingVersion returns the routing-table version currently in effect
// (bumped by rebalances, recoveries, and re-partitioning live churn).
func (s *ShardedSystem) RoutingVersion() int {
	if s.part == nil {
		return 0
	}
	return s.part.RoutingVersion()
}

// RecoverStats reports one shard crash recovery.
type RecoverStats struct {
	Shard    int   // index of the shard that was recovered away
	Replayed int   // logged entries replayed into the dead replica
	Moved    int   // state items re-imported on survivors
	Dropped  int   // replicated copies that died with the replica
	Bytes    int   // serialized payload bytes transported
	Shards   int   // shard count after recovery
	Version  int   // routing-table version now in effect
	PauseNS  int64 // barrier to resume
}

// RecoverShard absorbs a crashed shard into the survivors: the dead
// worker's unacknowledged batches are replayed into its intact engine
// replica, its operator state is serialized and placed on the surviving
// shards by the placement rules of rebalance (README, "Online
// rebalancing": keyed state re-hashed over the shrunken count, replicated
// copies dropped — every survivor holds one — and unpartitioned state
// moved to one survivor), and ingestion resumes over N-1 shards under a
// bumped routing-table version. Call it after an operation fails with
// ErrShardDead. Safe to call while other goroutines Push.
func (s *ShardedSystem) RecoverShard() (RecoverStats, error) {
	if s.sh == nil {
		return RecoverStats{}, errNotOptimized("RecoverShard")
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	st, err := s.sh.RecoverShard()
	if err == nil {
		s.part = s.sh.PartitionPlan()
	}
	return RecoverStats{
		Shard: st.Shard, Replayed: st.Replayed, Moved: st.Moved,
		Dropped: st.Dropped, Bytes: st.Bytes, Shards: st.Shards,
		Version: st.Version, PauseNS: st.Pause.Nanoseconds(),
	}, err
}

// ---------------------------------------------------------------------------
// Incremental mode: the churn-op log
// ---------------------------------------------------------------------------

// SetChurnLog attaches an incremental checkpoint log: every subsequent
// live maintenance operation (AddQueryLive, RemoveQuery) appends one
// record — the operation, the query name, its logical tree, and the plan
// delta it produced — to w. Between full snapshots, a restorer replays the
// log onto the last snapshot with ReplayChurnLog and then re-pushes the
// events that followed the snapshot; the logged deltas serve as an
// integrity check that the replayed maintenance reproduced the recorded
// query set. Pass nil to detach. Serialized against maintenance
// operations.
func (f *front) SetChurnLog(w io.Writer) {
	f.churnMu.Lock()
	defer f.churnMu.Unlock()
	f.churnLog = w
}

func (f *front) logChurn(op wire.ChurnOp, name string, root *Logical, d *core.Delta) error {
	if f.churnLog == nil {
		return nil
	}
	if err := wire.AppendChurnRecord(f.churnLog, &wire.ChurnRecord{Op: op, Name: name, Root: root, Delta: d}); err != nil {
		return fmt.Errorf("rumor: churn log (operation applied, log incomplete): %w", err)
	}
	return nil
}

// ChurnReplayer applies churn-log records; both System and ShardedSystem
// satisfy it.
type ChurnReplayer interface {
	AddQueryLive(name string, root *Logical) error
	RemoveQuery(name string) error
}

// ReplayChurnLog replays an incremental churn log (written via
// SetChurnLog) onto a system restored from the preceding full snapshot.
// Each add re-runs live plan maintenance — the rule engine re-derives the
// merge, and the logged delta's query membership is checked against the
// replayed one — and each remove unsubscribes again. Event tuples pushed
// after the snapshot are not in the log; re-push them after replay to
// reach the pre-crash state.
func ReplayChurnLog(sys ChurnReplayer, r io.Reader) error {
	recs, err := wire.ReadChurnLog(r)
	if err != nil {
		return err
	}
	for i, rec := range recs {
		switch rec.Op {
		case wire.ChurnAdd:
			if rec.Root == nil {
				return fmt.Errorf("rumor: churn record %d: add of %q has no plan", i, rec.Name)
			}
			if err := sys.AddQueryLive(rec.Name, rec.Root); err != nil {
				return fmt.Errorf("rumor: churn record %d: %w", i, err)
			}
			if rec.Delta != nil && len(rec.Delta.NewQueries) != 1 {
				return fmt.Errorf("rumor: churn record %d: add of %q recorded %d new queries", i, rec.Name, len(rec.Delta.NewQueries))
			}
		case wire.ChurnRemove:
			if err := sys.RemoveQuery(rec.Name); err != nil {
				return fmt.Errorf("rumor: churn record %d: %w", i, err)
			}
			if rec.Delta != nil && len(rec.Delta.RemovedQueries) != 1 {
				return fmt.Errorf("rumor: churn record %d: remove of %q recorded %d removed queries", i, rec.Name, len(rec.Delta.RemovedQueries))
			}
		default:
			return fmt.Errorf("rumor: churn record %d: unknown op %d", i, rec.Op)
		}
	}
	return nil
}

var _ ChurnReplayer = (*System)(nil)
var _ ChurnReplayer = (*ShardedSystem)(nil)

package rumor

import (
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/stream"
)

// ShardConfig sizes a ShardedSystem.
type ShardConfig struct {
	// Shards is the number of engine replicas (default 1).
	Shards int
	// BatchSize is the number of Push/PushBatch tuples accumulated per
	// shard before the buffer is handed to the shard's worker goroutine
	// (default 256). Larger batches amortize the cross-goroutine transfer
	// at the cost of result latency. PushColumns does not wait for it: it
	// hands its runs over before it returns.
	BatchSize int
	// QueueDepth bounds the batches buffered per shard; a full queue
	// applies backpressure to pushers (default 8).
	QueueDepth int
}

// ShardedSystem is a RUMOR instance executing one optimized plan across N
// engine replicas. It shares System's frontend — declaration, planning,
// live maintenance, result counts, and checkpointing. At Optimize the plan
// is analyzed for partitionability (see core.AnalyzePartition): each source
// stream is routed by hashing a partition attribute when the plan's
// stateful operators are equi-keyed, round-robin when its tuples only
// build operator state probed by a broadcast side (or flow through
// stateless operators), and broadcast otherwise. Results are merged from
// per-shard counters; replicated sinks are attributed to shard 0 only.
//
// Concurrency contract: live maintenance (AddQueryLive, RemoveQuery,
// Checkpoint, SetChurnLog, Rebalance, RecoverShard) is serialized
// internally; the push family, ResultCount and TotalResults are safe for
// concurrent use, also during maintenance — pushers block only for its
// batch-queue barrier. Tuples are processed asynchronously: call Drain to
// wait for quiescence before reading counts, and Close to shut the workers
// down.
//
// A live add extends the partition plan: existing source routes are
// pinned (the distributed operator state depends on them), only multicast
// tables grow, and new sources receive fresh routes. When the new query
// cannot be served under the pinned routes (it would re-route a running
// source — e.g. it needs a broadcast of a currently partitioned stream),
// the system performs a scoped rebalance instead of rejecting the add: the
// grown plan is re-analyzed from scratch and, at the same barrier that
// splices the delta, every stateful operator's stored state is drained,
// re-hashed to its owners under the new routes, and imported there before
// ingestion resumes (shard.ApplyDeltaRebalance). A live remove keeps the
// superset routes when the shrunken plan cannot be re-extended, and
// multicast tables shed the constants only the removed query needed.
type ShardedSystem struct {
	front
	cfg ShardConfig

	sh   *shard.Engine
	part *core.PartitionPlan
}

// NewSharded creates an empty sharded system.
func NewSharded(cfg ShardConfig) *ShardedSystem {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	s := &ShardedSystem{cfg: cfg}
	s.init()
	return s
}

func (s *ShardedSystem) shardConfig() shard.Config {
	return shard.Config{Shards: s.cfg.Shards, BatchSize: s.cfg.BatchSize, QueueDepth: s.cfg.QueueDepth}
}

// Optimize plans all registered queries, applies the m-rules, analyzes
// partitionability, and starts the shard workers. It must be called
// exactly once.
func (s *ShardedSystem) Optimize(opt Options) error {
	plan, err := s.buildPlan(opt)
	if err != nil {
		return err
	}
	part := core.AnalyzePartition(plan)
	sh, err := shard.New(plan, part, s.shardConfig())
	if err != nil {
		return err
	}
	s.sh, s.part = sh, part
	s.start(plan, s)
	return nil
}

// applyDelta extends the partition plan for the grown or shrunken plan and
// applies the delta to every replica at a batch-queue barrier. Caller
// holds churnMu.
func (s *ShardedSystem) applyDelta(d *core.Delta, removed []int, rewire func()) error {
	apply := s.sh.ApplyDelta
	part, err := core.ExtendPartition(s.plan, s.part)
	switch {
	case err == nil:
	case removed != nil:
		// Routes valid for the superset query set stay valid for the
		// subset (pruning is an optimization, not a correctness
		// requirement).
		part = s.part
	default:
		// The pinned routes cannot serve the grown plan. Re-analyze from
		// scratch; the state migration moves the running operator state to
		// wherever the new routes place it. The key-placement overlay
		// restarts empty under a bumped version (adaptive rebalancing
		// re-flattens later if skew rebuilds).
		part = core.AnalyzePartition(s.plan)
		part.Table = &core.RoutingTable{Version: s.part.RoutingVersion() + 1}
		apply = s.sh.ApplyDeltaRebalance
	}
	if err := apply(d, part, removed, rewire); err != nil {
		return err
	}
	s.part = part
	return nil
}

// Rebalance drains the shards, migrates stored operator state onto a
// freshly balanced key placement (hot keys move — or split, when the plan
// allows — off overloaded shards), swaps the versioned routing table, and
// resumes ingestion. Results are unaffected; only placement changes. Safe
// to call while other goroutines Push.
func (s *ShardedSystem) Rebalance() (RebalanceStats, error) {
	if s.sh == nil {
		return RebalanceStats{}, errNotOptimized("Rebalance")
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	st, err := s.sh.Rebalance(nil)
	return s.finishRebalance(st, err == nil), err
}

// finishRebalance adopts the routing table a shard-level rebalance
// installed and converts its stats. Caller holds churnMu.
func (s *ShardedSystem) finishRebalance(st shard.RebalanceStats, ran bool) RebalanceStats {
	if ran {
		s.part = s.sh.PartitionPlan()
	}
	return RebalanceStats{
		Moved: st.Moved, Dropped: st.Dropped, Keys: st.Keys,
		PauseNS: st.Pause.Nanoseconds(), Version: st.Version,
	}
}

// MaybeRebalance rebalances only when the busy-time drift across shards
// since the last rebalance exceeds maxImbalance (slowest shard over mean;
// e.g. 1.25 tolerates 25%). It reports whether a rebalance ran.
func (s *ShardedSystem) MaybeRebalance(maxImbalance float64) (bool, RebalanceStats, error) {
	if s.sh == nil {
		return false, RebalanceStats{}, errNotOptimized("MaybeRebalance")
	}
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	ran, st, err := s.sh.MaybeRebalance(maxImbalance)
	return ran, s.finishRebalance(st, ran && err == nil), err
}

// RebalanceStats reports one online rebalance.
type RebalanceStats struct {
	Moved   int   // state items imported on a new owner shard
	Dropped int   // replicated copies deduplicated away
	Keys    int   // keys with explicit placements afterwards
	PauseNS int64 // ingestion pause, barrier to resume
	Version int   // routing-table version now in effect
}

// Drain blocks until every shard has processed all tuples pushed so far.
// Result counts are stable afterwards (until the next Push).
func (s *ShardedSystem) Drain() error {
	if s.sh == nil {
		return errNotOptimized("Drain")
	}
	return s.sh.Drain()
}

// Close drains and stops the shard workers. Further pushes fail. Close is
// idempotent.
func (s *ShardedSystem) Close() error {
	if s.sh == nil {
		return nil
	}
	return s.sh.Close()
}

// NumShards returns the number of engine replicas.
func (s *ShardedSystem) NumShards() int {
	if s.sh == nil {
		return s.cfg.Shards
	}
	return s.sh.NumShards()
}

// PartitionInfo renders the routing decisions of the partitionability
// analysis (empty before Optimize).
func (s *ShardedSystem) PartitionInfo() string {
	if s.part == nil {
		return ""
	}
	return s.part.String()
}

// ShardStat reports one shard's load after a Drain.
type ShardStat struct {
	Shard   int
	Tuples  int64 // tuples routed into the shard
	BusyNS  int64 // time the shard's worker spent processing
	Results int64 // results produced by the shard
}

// ShardStats returns per-shard load counters. Call Drain first for stable
// values.
func (s *ShardedSystem) ShardStats() []ShardStat {
	if s.sh == nil {
		return nil
	}
	raw := s.sh.ShardStats()
	out := make([]ShardStat, len(raw))
	for i, st := range raw {
		out[i] = ShardStat{Shard: st.Shard, Tuples: st.Tuples, BusyNS: st.BusyNS, Results: st.Results}
	}
	return out
}

// PlanInfo returns summary statistics of the optimized plan, including
// the multicast routing-table width of the partition analysis.
func (s *ShardedSystem) PlanInfo() PlanInfo {
	info := s.front.PlanInfo()
	if s.part != nil {
		for _, r := range s.part.Routes {
			info.MulticastKeys += len(r.Table)
		}
	}
	return info
}

func (s *ShardedSystem) push(streamName string, ts int64, vals []int64) error {
	return s.sh.Push(streamName, ts, vals)
}

func (s *ShardedSystem) pushBatch(streamName string, ts []int64, vals [][]int64) error {
	return s.sh.PushBatch(streamName, ts, vals)
}

func (s *ShardedSystem) pushColumns(streamName string, ts []int64, cols [][]int64) error {
	return s.sh.PushColumns(streamName, ts, cols)
}

func (s *ShardedSystem) setBlockSize(n int) error                      { return s.sh.SetBlockSize(n) }
func (s *ShardedSystem) setOnResult(fn func(qid int, t *stream.Tuple)) { s.sh.OnResult(fn) }
func (s *ShardedSystem) resultCount(qid int) int64                     { return s.sh.ResultCount(qid) }
func (s *ShardedSystem) totalResults() int64                           { return s.sh.TotalResults() }
func (s *ShardedSystem) blocksProcessed() int64                        { return s.sh.BlocksProcessed() }

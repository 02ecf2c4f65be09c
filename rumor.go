// Package rumor is a Go implementation of RUMOR, the rule-based
// multi-query optimization (MQO) framework for data stream systems of
// Hong et al., "Rule-Based Multi-Query Optimization", EDBT 2009.
//
// RUMOR generalizes the three core abstractions of a stream engine:
// physical operators become m-ops (each implementing a set of operators),
// transformation rules become m-rules (which merge operator sets into
// m-ops), and streams become channels (stream unions whose tuples carry
// membership bit vectors). A single engine then evaluates CQL-style
// relational stream queries, Cayuga-style event pattern queries, and
// hybrid queries, sharing state and computation across all of them.
//
// The System type is the embedding API (ShardedSystem offers the same
// methods over N engine replicas): declare streams, register continuous
// queries (via the query language or programmatically with the
// re-exported builders), optimize, and push tuples:
//
//	sys := rumor.New()
//	err := sys.ExecScript(`
//	    CREATE STREAM CPU(pid, load);
//	    LET smoothed := AGG(avg(load) OVER 60 BY pid FROM CPU);
//	    QUERY hot := FILTER(load > 90, @smoothed);
//	`)
//	sys.OnResult(func(q string, ts int64, vals []int64) { ... })
//	err = sys.Optimize(rumor.Options{Channels: true})
//	err = sys.Push("CPU", 0, 17, 95)
//
// Subpackages (internal): core (plans, m-ops as plan nodes, channels),
// rules (the m-rules and optimizer), mop (executable m-ops: predicate
// indexing, shared aggregation/join, the Cayuga ; and µ operators with
// FR/AN/AI indexes, channel modes), engine (execution), automaton (the
// Cayuga baseline and the §4.2 automaton→plan translation), cql (query
// language), workload and bench (the paper's evaluation).
package rumor

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/rules"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Logical is a logical query plan node; build trees with Scan, Filter,
// Project, Agg, Join, Seq and Mu (re-exported from the core package).
type Logical = core.Logical

// Builders for programmatic query construction.
var (
	// Scan reads a declared source stream.
	Scan = core.Scan
	// Filter applies a selection predicate (package expr).
	Filter = core.SelectL
	// Project applies a schema map.
	Project = core.ProjectL
	// Agg applies a sliding-window aggregate.
	Agg = core.AggL
	// Join is a windowed two-stream join.
	Join = core.JoinL
	// Seq is the Cayuga sequence operator (;).
	Seq = core.SeqL
	// Mu is the Cayuga iteration operator (µ).
	Mu = core.MuL
)

// Aggregate functions for Agg.
const (
	Sum   = core.AggSum
	Count = core.AggCount
	Avg   = core.AggAvg
	Min   = core.AggMin
	Max   = core.AggMax
)

// Options configures optimization.
type Options struct {
	// Channels enables the channel-based m-rules (cσ, cα, c⨝, c;, cµ).
	Channels bool
	// ChannelMinStreams gates the channel rules: a candidate operator
	// group must cover at least this many distinct sharable streams
	// (0 = the default of 2). Larger values trade sharing for lower
	// membership overhead (§3.2).
	ChannelMinStreams int
}

// PlanInfo summarizes the optimized plan.
type PlanInfo struct {
	Queries   int // registered continuous queries
	MOps      int // m-op nodes (excluding sources)
	Operators int // operator instances implemented by the m-ops
	Channels  int // edges encoding more than one stream
	Streams   int // logical streams

	// LiveSlots / TotalSlots measure channel membership width: live
	// streams vs total encoded slots (including tombstones left by live
	// query removal), summed over the channel edges. Channel compaction
	// keeps LiveSlots ≥ TotalSlots/2 in steady state, so membership words
	// stay bounded under sustained add/remove churn.
	LiveSlots  int
	TotalSlots int

	// ChannelWords is the total membership words backing the channel
	// edges; SpilledChannels counts channels whose membership no longer
	// fits one inline word (each tuple on such a channel carries a heap
	// bitset — engine_member_spills_total counts the per-tuple cost).
	ChannelWords    int
	SpilledChannels int
	// MulticastKeys is the total number of distinct partner constants in
	// the multicast routing tables (sharded systems only; 0 otherwise).
	MulticastKeys int

	// BlockEdges counts plan edges statically capable of carrying
	// columnar blocks (producer and all consumers vectorize, membership
	// fits one word); BlocksProcessed is the number of blocks the engine
	// has actually delivered along such edges — 0 when every push took
	// the scalar path.
	BlockEdges      int
	BlocksProcessed int64
}

// ErrArity reports a pushed tuple (or column set) whose value count differs
// from its source stream's declared arity. Nothing of the rejected call is
// ingested. Matches with errors.Is.
var ErrArity = stream.ErrArity

// front is the frontend System and ShardedSystem share: the catalog, the
// query books (registered queries, their names, and the frozen final
// counts of queries removed live), the optimizer options, the churn log,
// and the result callback, over an executor that runs the plan. churnMu
// serializes maintenance (including the sharded rebalance and recovery
// calls); nameMu guards the query books, so a ShardedSystem's ResultCount
// is safe against concurrent maintenance.
type front struct {
	catalog map[string]core.SourceDecl
	queries []*core.Query
	byName  map[string]*core.Query
	// removed maps names of live-removed queries to their frozen final
	// result counts.
	removed map[string]int64

	// ropts preserves the optimization options for incremental (live)
	// rule application after Optimize.
	ropts rules.Options
	plan  *core.Physical
	exec  executor // nil before Optimize

	// churnLog, when set, receives one wire.ChurnRecord per successful
	// live maintenance operation (incremental checkpoint mode).
	churnLog io.Writer
	onResult func(query string, ts int64, vals []int64)

	churnMu sync.Mutex
	nameMu  sync.RWMutex
}

// executor runs the optimized plan under a front: *System over one
// engine.Engine, *ShardedSystem over a shard.Engine.
type executor interface {
	push(streamName string, ts int64, vals []int64) error
	pushBatch(streamName string, ts []int64, vals [][]int64) error
	pushColumns(streamName string, ts []int64, cols [][]int64) error
	setBlockSize(n int) error
	setOnResult(fn func(qid int, t *stream.Tuple))
	// applyDelta splices a live plan delta (removed lists the IDs of the
	// queries it removes) and runs rewire before ingestion resumes.
	applyDelta(d *core.Delta, removed []int, rewire func()) error
	resultCount(qid int) int64
	totalResults() int64
	blocksProcessed() int64
	// snapshot fills the executor's part of a checkpoint: shard count,
	// partition, result counters, and operator state.
	snapshot(c *wire.Checkpoint, queries []*core.Query) error
}

func (f *front) init() {
	f.catalog = make(map[string]core.SourceDecl)
	f.byName = make(map[string]*core.Query)
	f.removed = make(map[string]int64)
}

func errNotOptimized(op string) error {
	return fmt.Errorf("rumor: call Optimize before %s", op)
}

// DeclareStream registers a source stream with the given attributes. A
// non-empty sharableLabel marks streams of the same label as sharable
// sources (§3.2 base case 2), making them candidates for channel encoding.
func (f *front) DeclareStream(name, sharableLabel string, attrs ...string) error {
	if _, dup := f.catalog[name]; dup {
		return fmt.Errorf("rumor: stream %q already declared", name)
	}
	sch, err := stream.NewSchema(name, attrs...)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	// Declaring after Optimize is allowed: the new stream enters the
	// running plan when an AddQueryLive first scans it.
	f.catalog[name] = core.SourceDecl{Schema: sch, Label: sharableLabel}
	return nil
}

// ExecScript parses a CQL script, merging its stream declarations and
// registering its queries.
func (f *front) ExecScript(src string) error {
	if f.plan != nil {
		return fmt.Errorf("rumor: cannot add queries after Optimize")
	}
	script, err := cql.Parse(src)
	if err != nil {
		return err
	}
	for name, decl := range script.Catalog {
		if _, dup := f.catalog[name]; dup {
			return fmt.Errorf("rumor: stream %q already declared", name)
		}
		f.catalog[name] = decl
	}
	for _, q := range script.Queries {
		if err := f.addQuery(q); err != nil {
			return err
		}
	}
	return nil
}

// AddQuery registers a programmatically built continuous query.
func (f *front) AddQuery(name string, root *Logical) error {
	if f.plan != nil {
		return fmt.Errorf("rumor: cannot add queries after Optimize")
	}
	return f.addQuery(core.NewQuery(name, root))
}

func (f *front) addQuery(q *core.Query) error {
	if f.query(q.Name) != nil {
		return fmt.Errorf("rumor: query %q already registered", q.Name)
	}
	f.register(q)
	return nil
}

// query looks a registered query up by name (nil when absent).
func (f *front) query(name string) *core.Query {
	f.nameMu.RLock()
	defer f.nameMu.RUnlock()
	return f.byName[name]
}

// register adds q to the query books.
func (f *front) register(q *core.Query) {
	f.nameMu.Lock()
	defer f.nameMu.Unlock()
	f.queries = append(f.queries, q)
	f.byName[q.Name] = q
}

// unregister drops q from the query books.
func (f *front) unregister(q *core.Query) {
	f.nameMu.Lock()
	defer f.nameMu.Unlock()
	delete(f.byName, q.Name)
	out := f.queries[:0]
	for _, x := range f.queries {
		if x != q {
			out = append(out, x)
		}
	}
	f.queries = out
}

// OnResult registers the result callback, attributed by query name. It may
// be called before Optimize or at any time after; on a ShardedSystem it
// must be registered before the first Push, calls are sequenced across
// shards (one at a time), and the callback must not retain the values.
func (f *front) OnResult(fn func(query string, ts int64, vals []int64)) {
	f.onResult = fn
	if f.exec != nil {
		f.wireCallback()
	}
}

func (f *front) wireCallback() {
	fn := f.onResult
	if fn == nil {
		f.exec.setOnResult(nil)
		return
	}
	f.nameMu.RLock()
	names := make(map[int]string, len(f.queries))
	for _, q := range f.queries {
		names[q.ID] = q.Name
	}
	f.nameMu.RUnlock()
	f.exec.setOnResult(func(qid int, t *stream.Tuple) {
		fn(names[qid], t.TS, t.Vals)
	})
}

// buildPlan plans all registered queries and applies the m-rules.
func (f *front) buildPlan(opt Options) (*core.Physical, error) {
	if f.plan != nil {
		return nil, fmt.Errorf("rumor: already optimized")
	}
	if len(f.queries) == 0 {
		return nil, fmt.Errorf("rumor: no queries registered")
	}
	plan := core.NewPhysical(f.catalog)
	for _, q := range f.queries {
		if err := plan.AddQuery(q); err != nil {
			return nil, err
		}
	}
	ropts := rules.Options{Channels: opt.Channels, ChannelMinStreams: opt.ChannelMinStreams}
	if err := rules.Optimize(plan, ropts); err != nil {
		return nil, err
	}
	f.ropts = ropts
	return plan, nil
}

// start puts a built or restored plan into service on its executor.
func (f *front) start(plan *core.Physical, exec executor) {
	f.plan = plan
	f.exec = exec
	f.wireCallback()
}

// AddQueryLive registers a continuous query on a running system: the
// query is planned naively into the live physical plan, the m-rules are
// re-applied incrementally (merging the new operators into the existing
// shared m-ops and growing channel memberships append-only), and the
// resulting delta is spliced into the executor's routing tables without
// touching the operator state of the running queries — on a ShardedSystem
// at a batch-queue barrier on every replica (see ShardedSystem for how the
// partition plan follows). Before Optimize it is equivalent to AddQuery.
//
// The new query starts from the shared state its merged operators expose:
// a query that collapses onto an identical running operator (CSE) adopts
// that operator's history outright; a query merged into a plain shared
// group observes the group's stored window; and a query merged into a
// channel-mode agg/join/seq group at a fresh membership position has the
// group's retained window replayed under its bit — the stored items are
// re-filtered through the query's gating selections, so a mid-stream
// subscriber over a single-source channel sees full-window results from
// its first batch (exactly the results a from-scratch plan retains,
// whenever the shared store's contents cover the new gating — e.g. the
// gating predicate is implied by a live member's). Channel growth reuses
// tombstoned membership slots before widening, so an add/remove/add cycle
// of the same query does not grow the membership words.
func (f *front) AddQueryLive(name string, root *Logical) error {
	if f.exec == nil {
		return f.AddQuery(name, root)
	}
	f.churnMu.Lock()
	defer f.churnMu.Unlock()
	if f.query(name) != nil {
		return fmt.Errorf("rumor: query %q already registered", name)
	}
	start := time.Now()
	q := core.NewQuery(name, root)
	d, err := live.NewMaintainer(f.plan, f.ropts).AddQuery(q)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	f.register(q)
	if err := f.exec.applyDelta(d, nil, f.wireCallback); err != nil {
		// The executor rejected (or rolled back) the delta; undo the books
		// so the registered set matches what it serves.
		f.unregister(q)
		return fmt.Errorf("rumor: %w", err)
	}
	f.nameMu.Lock()
	delete(f.removed, name)
	f.nameMu.Unlock()
	noteLiveAdd(name, d, time.Since(start))
	return f.logChurn(wire.ChurnAdd, name, root, d)
}

// RemoveQuery unsubscribes a continuous query. On a running system the
// operators serving only this query are garbage-collected (reference
// counts of shared operators drop; channel membership positions are
// tombstoned; exclusively owned window and instance state is discarded),
// and the executor's routing tables are updated in place. Channels whose
// tombstones come to dominate are compacted in the same step: dead
// positions are dropped and the memberships stored inside the running
// m-ops are rewritten through the position remap, keeping membership
// words bounded under sustained churn (live/total slots ≥ 1/2). The
// removed query's final result count stays available through ResultCount
// and remains part of TotalResults, across later compactions and
// rebalance epoch rebases.
func (f *front) RemoveQuery(name string) error {
	f.churnMu.Lock()
	defer f.churnMu.Unlock()
	q := f.query(name)
	if q == nil {
		return fmt.Errorf("rumor: query %q not registered", name)
	}
	if f.exec == nil {
		f.unregister(q)
		return nil
	}
	start := time.Now()
	d, err := live.NewMaintainer(f.plan, f.ropts).RemoveQuery(q.ID)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	f.unregister(q)
	if err := f.exec.applyDelta(d, []int{q.ID}, f.wireCallback); err != nil {
		f.register(q)
		return fmt.Errorf("rumor: %w", err)
	}
	final := f.exec.resultCount(q.ID)
	f.nameMu.Lock()
	f.removed[name] = final
	f.nameMu.Unlock()
	noteLiveRemove(name, d, time.Since(start))
	return f.logChurn(wire.ChurnRemove, name, nil, d)
}

// Push injects one tuple into a source stream. Tuples must be pushed in
// non-decreasing timestamp order across all sources. A ShardedSystem
// routes the tuple to its owning shard(s), processes it asynchronously,
// and takes ownership of vals. A value count that differs from the
// stream's arity fails with ErrArity.
func (f *front) Push(streamName string, ts int64, vals ...int64) error {
	if f.exec == nil {
		return errNotOptimized("Push")
	}
	return f.exec.push(streamName, ts, vals)
}

// PushBatch injects a batch of tuples into one source stream, enqueuing
// the whole batch before a single propagation drain (a single routing pass
// on a ShardedSystem). ts[i] pairs with vals[i]; timestamps must be
// non-decreasing and must not precede tuples pushed later on other sources
// that should be processed first — batching trades per-call overhead for
// coarser interleaving with other sources. Per-query result streams match
// per-tuple Push: a source that feeds one join/sequence through paths of
// differing operator depth is drained one tuple at a time. OnResult calls
// for different queries may interleave differently within a batch. The
// system takes ownership of the vals slices. A row of the wrong arity
// rejects the whole batch with ErrArity.
func (f *front) PushBatch(streamName string, ts []int64, vals [][]int64) error {
	if f.exec == nil {
		return errNotOptimized("PushBatch")
	}
	return f.exec.pushBatch(streamName, ts, vals)
}

// PushColumns injects a batch given column-major: ts[i] pairs with
// cols[a][i] (one slice per attribute; a column count that differs from
// the stream's arity fails with ErrArity). This is the zero-copy entry to
// the vectorized execution path, never exploding the batch into per-row
// tuples: a System wraps the slices into blocks for the duration of the
// drain and returns ownership to the caller; a ShardedSystem keeps the
// batch columnar through the router, the per-shard WAL and the worker
// queues, takes ownership of ts and cols, and hands the runs to the shard
// workers before it returns, so their results arrive without a Drain. The
// rows propagate as one batch even for a source PushBatch drains one tuple
// at a time, so rows that must see each other's effects through a
// join/sequence fed along paths of differing depth belong in separate
// calls.
func (f *front) PushColumns(streamName string, ts []int64, cols [][]int64) error {
	if f.exec == nil {
		return errNotOptimized("PushColumns")
	}
	return f.exec.pushColumns(streamName, ts, cols)
}

// SetBlockSize tunes the vectorized ingest path (of every in-process shard
// replica): batches are segmented into columnar blocks of at most n rows
// (0 restores the default, n < 0 disables vectorization entirely, forcing
// the scalar per-tuple path). On a System call it between pushes, not
// concurrently with them; on a ShardedSystem the change lands behind a
// quiesce barrier.
func (f *front) SetBlockSize(n int) error {
	if f.exec == nil {
		return errNotOptimized("SetBlockSize")
	}
	return f.exec.setBlockSize(n)
}

// ResultCount returns the number of results produced so far for a query
// (merged across shards; call Drain first on a ShardedSystem for a stable
// value). A query removed live reports its frozen final count.
func (f *front) ResultCount(query string) int64 {
	f.nameMu.RLock()
	q, ok := f.byName[query]
	frozen := f.removed[query]
	f.nameMu.RUnlock()
	if !ok || f.exec == nil {
		return frozen
	}
	return f.exec.resultCount(q.ID)
}

// TotalResults returns the number of results across all queries,
// including the final counts of queries removed live.
func (f *front) TotalResults() int64 {
	if f.exec == nil {
		return 0
	}
	return f.exec.totalResults()
}

// PlanInfo returns summary statistics of the optimized plan.
func (f *front) PlanInfo() PlanInfo {
	if f.plan == nil {
		return PlanInfo{}
	}
	st := f.plan.Stats()
	sources := 0
	ops := 0
	for _, n := range f.plan.Nodes {
		if n.Kind == core.KindSource {
			sources++
			continue
		}
		ops += len(n.Ops)
	}
	return PlanInfo{
		Queries:         st.Queries,
		MOps:            st.Nodes - sources,
		Operators:       ops,
		Channels:        st.Channels,
		Streams:         st.Streams,
		LiveSlots:       st.LiveSlots,
		TotalSlots:      st.TotalSlots,
		ChannelWords:    st.ChannelWords,
		SpilledChannels: st.SpilledChannels,
		BlockEdges:      st.BlockEdges,
		BlocksProcessed: f.exec.blocksProcessed(),
	}
}

// PlanString renders the optimized physical plan for inspection.
func (f *front) PlanString() string {
	if f.plan == nil {
		return "(not optimized)"
	}
	return f.plan.String()
}

// PlanDot renders the optimized physical plan in Graphviz dot format
// (channels drawn as dashed edges, as in the paper's figures).
func (f *front) PlanDot() string {
	if f.plan == nil {
		return "digraph rumor {}\n"
	}
	return f.plan.Dot()
}

// System is a RUMOR stream-processing instance running one engine in the
// caller's goroutine. It shares its frontend — declaration, planning, live
// maintenance, result counts, and checkpointing — with ShardedSystem.
//
// Concurrency contract: live maintenance (AddQueryLive, RemoveQuery,
// Checkpoint, SetChurnLog) is serialized internally, so maintenance calls
// may come from several goroutines; otherwise a System is for one
// goroutine: pushes and reads must not run concurrently with each other or
// with maintenance.
type System struct {
	front
	eng *engine.Engine
}

// New creates an empty system.
func New() *System {
	s := &System{}
	s.init()
	return s
}

// Optimize plans all registered queries, applies the m-rules, and builds
// the execution engine. It must be called exactly once; afterwards the
// query set evolves through AddQueryLive and RemoveQuery (the §7 "future
// work" of the paper, implemented here as incremental plan maintenance).
func (s *System) Optimize(opt Options) error {
	plan, err := s.buildPlan(opt)
	if err != nil {
		return err
	}
	eng, err := engine.New(plan)
	if err != nil {
		return err
	}
	s.eng = eng
	s.start(plan, s)
	return nil
}

// PushShared injects one channel tuple that belongs to all the named
// sharable source streams at once (they must have been encoded into the
// same channel by optimization).
func (s *System) PushShared(streamNames []string, ts int64, vals ...int64) error {
	if s.eng == nil {
		return errNotOptimized("PushShared")
	}
	if len(streamNames) == 0 {
		return fmt.Errorf("rumor: PushShared needs at least one stream")
	}
	member := bitset.New(len(streamNames))
	var edgeID = -1
	for _, name := range streamNames {
		ref := s.plan.SourceStream(name)
		if ref == nil {
			return fmt.Errorf("rumor: source %q not in plan", name)
		}
		e, pos := s.plan.EdgeOf(ref)
		if edgeID == -1 {
			edgeID = e.ID
		} else if e.ID != edgeID {
			return fmt.Errorf("rumor: streams %v are not encoded into one channel", streamNames)
		}
		member.Set(pos)
	}
	t := &stream.Tuple{TS: ts, Vals: vals, Member: member}
	return s.eng.PushChannel(streamNames[0], t)
}

func (s *System) push(streamName string, ts int64, vals []int64) error {
	return s.eng.Push(streamName, &stream.Tuple{TS: ts, Vals: vals})
}

func (s *System) pushBatch(streamName string, ts []int64, vals [][]int64) error {
	return s.eng.PushBatch(streamName, ts, vals)
}

func (s *System) pushColumns(streamName string, ts []int64, cols [][]int64) error {
	return s.eng.PushColumns(streamName, ts, cols)
}

func (s *System) setBlockSize(n int) error {
	s.eng.SetBlockSize(n)
	return nil
}

func (s *System) setOnResult(fn func(qid int, t *stream.Tuple)) { s.eng.OnResult = fn }

func (s *System) applyDelta(d *core.Delta, _ []int, rewire func()) error {
	if err := s.eng.ApplyDelta(d); err != nil {
		return err
	}
	rewire()
	return nil
}

func (s *System) resultCount(qid int) int64 { return s.eng.ResultCount(qid) }
func (s *System) totalResults() int64       { return s.eng.TotalResults() }
func (s *System) blocksProcessed() int64    { return s.eng.BlocksProcessed() }

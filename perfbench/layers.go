package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The layer run feeds one pass of the workload through nested
// configurations built from the layer packages directly, each adding one
// layer: the engine alone (engine.New), then local shards (shard.New),
// then the pipe cluster (shard.NewCluster). Spans time the calls into
// each layer; the counters the packages export (NodeStats, ShardStats,
// Metrics, transport.ReadStats) give the work done. Telemetry is on, so
// operator busy time is sampled.

// mopKinds are the m-op kinds the paper's workloads use. No workload
// uses join or project, so those two kinds go unmeasured.
var mopKinds = []core.OpKind{core.KindSelect, core.KindSeq, core.KindMu, core.KindAgg}

// layerConfig names one nested configuration.
type layerConfig int

const (
	engineOnly layerConfig = iota
	localShards
	pipeCluster
)

func (c layerConfig) String() string {
	return [...]string{"engine", "shard", "cluster"}[c]
}

type layerRun struct {
	sp      *spec
	tr      *tracer
	want    map[string]int64 // reference counts after the first pass
	metrics map[string]metric

	attempted, failed int64

	ingestNS map[layerConfig]float64 // ingest wall time per event
}

func (l *layerRun) set(name string, v float64) {
	l.metrics[name] = metric{v, perLayerUnit[name]}
}

func (l *layerRun) check(what string, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "%s: FAIL layer run %s: %v\n", l.sp.name, what, err)
	}
}

func (l *layerRun) run() {
	for name := range perLayerUnit {
		if _, ok := l.metrics[name]; !ok {
			l.set(name, 0)
		}
	}
	l.ingestNS = make(map[layerConfig]float64)
	for c := engineOnly; c <= l.sp.deployment; c++ {
		l.tr.begin("bench.layer_" + c.String())
		l.config(c)
		l.tr.end()
	}
	if ns, ok := l.ingestNS[localShards]; ok {
		l.set("shard.overhead_ns_per_event", ns-l.ingestNS[engineOnly])
	}
	if ns, ok := l.ingestNS[pipeCluster]; ok {
		l.set("cluster.overhead_ns_per_event", ns-l.ingestNS[localShards])
	}
}

// target is one configuration's ingest and maintenance entry points.
type target struct {
	push   func(st step, offset int64) error
	drain  func() error
	apply  func(m *live.Maintainer, q *core.Query, remove bool) (*core.Delta, error)
	count  func(qid int) int64
	finish func() error
}

func catalogOf(streams []streamDecl) map[string]core.SourceDecl {
	cat := make(map[string]core.SourceDecl, len(streams))
	for _, s := range streams {
		cat[s.name] = core.SourceDecl{Schema: stream.MustSchema(s.name, s.attrs...)}
	}
	return cat
}

func (l *layerRun) config(c layerConfig) {
	sp, tr := l.sp, l.tr
	qs := sp.base()
	plan := core.NewPhysical(catalogOf(sp.streams))
	buildD, err := tr.span("core.plan_build", func() error {
		for _, q := range qs {
			if err := plan.AddQuery(q); err != nil {
				return err
			}
		}
		return nil
	})
	l.check("plan build", err)
	opts := rules.Options{Channels: true}
	d, err := tr.span("rules.optimize", func() error { return rules.Optimize(plan, opts) })
	l.check("optimize", err)
	if err != nil {
		return
	}
	if c == engineOnly {
		l.set("core.plan_build_ms", float64(buildD)/1e6)
		l.set("rules.optimize_ms", float64(d)/1e6)
		st := plan.Stats()
		ops := 0
		for _, n := range plan.Nodes {
			if n.Kind != core.KindSource {
				ops += len(n.Ops)
			}
		}
		l.set("core.mops", float64(st.Nodes-len(plan.Catalog)))
		l.set("core.operators", float64(ops))
		l.set("core.channels", float64(st.Channels))
	}

	var tg target
	var eng *engine.Engine
	var se *shard.Engine
	var part *core.PartitionPlan
	switch c {
	case engineOnly:
		d, err = tr.span("engine.lower", func() (err error) { eng, err = engine.New(plan); return })
		l.check("engine.New", err)
		if err != nil {
			return
		}
		l.set("engine.lower_ms", float64(d)/1e6)
		tg = engineTarget(eng, tr)
	default:
		d, _ = tr.span("core.partition", func() error { part = core.AnalyzePartition(plan); return nil })
		l.set("core.partition_ms", float64(d)/1e6)
		cfg := shard.Config{Shards: numShards}
		if c == localShards {
			_, err = tr.span("shard.new", func() (err error) { se, err = shard.New(plan, part, cfg); return })
		} else {
			workers := startPipeWorkers(numShards, func(lis net.Listener) error { return cluster.Serve(lis, cluster.WorkerConfig{}) })
			defer workers.stop()
			nodes := make([]cluster.Config, numShards)
			for i, n := range workers.nodes() {
				nodes[i] = cluster.Config{Dial: n.Dial, Epoch: time.Now().UnixNano(), Seed: int64(i + 1)}
			}
			d, err = tr.span("cluster.dial", func() (err error) { se, err = shard.NewCluster(plan, part, cfg, nodes); return })
			l.set("cluster.dial_ms", float64(d)/1e6)
		}
		l.check("shard engine", err)
		if err != nil {
			return
		}
		tg = shardTarget(se, plan, &part, tr)
	}

	// One pass of the feed, with the workload's churn when its closed
	// loop churns; checkpoints are left to the public-API run.
	var ch *churn
	var m *live.Maintainer
	if sp.churnInClosed {
		ch = newChurn(sp.pool(), sp.churnEvery)
		m = live.NewMaintainer(plan, opts)
	}
	ids := make(map[string]int, len(qs))
	for _, q := range qs {
		ids[q.Name] = q.ID
	}
	frozen := make(map[string]int64)
	nodes := newNodeAcc()
	before := transport.ReadStats()
	var maintNS int64
	var maintStats transport.Stats
	var addNS, remNS, applyNS, deltaOps []int64
	tr.begin("bench.layer_pass")
	start := time.Now()
	for i := 0; i < sp.feed.len(); i++ {
		l.check("push", tg.push(sp.feed.step(i), 0))
		if ch == nil {
			continue
		}
		o, ok := ch.tick()
		if !ok {
			continue
		}
		t0 := time.Now()
		s0 := transport.ReadStats()
		q := core.NewQuery(o.name, o.root)
		if !o.add {
			q = &core.Query{ID: ids[o.name], Name: o.name}
			if c == engineOnly {
				frozen[o.name] = tg.count(q.ID)
			}
		}
		if eng != nil {
			nodes.sample(eng, plan)
		}
		delta, err := tg.apply(m, q, !o.add)
		l.check("maintenance", err)
		s1 := transport.ReadStats()
		maintNS += int64(time.Since(t0))
		maintStats.BytesSent += s1.BytesSent - s0.BytesSent + s1.BytesRecv - s0.BytesRecv
		maintStats.FramesSent += s1.FramesSent - s0.FramesSent + s1.FramesRecv - s0.FramesRecv
		if o.add {
			ids[o.name] = q.ID
			addNS = append(addNS, tr.lastNS("live.add"))
		} else {
			remNS = append(remNS, tr.lastNS("live.remove"))
			if c != engineOnly {
				frozen[o.name] = tg.count(q.ID)
			}
		}
		applyNS = append(applyNS, tr.lastNS(applySpan(c)))
		if delta != nil {
			deltaOps = append(deltaOps, int64(len(delta.Dirty)+len(delta.Removed)))
		}
	}
	var drainD time.Duration
	drainD, err = tr.span(drainSpan(c), tg.drain)
	l.check("drain", err)
	wall := time.Since(start)
	tr.end()
	after := transport.ReadStats()
	events := float64(sp.feed.events)
	l.ingestNS[c] = float64(wall.Nanoseconds()-maintNS) / events

	// Output check against the reference's first pass.
	got := make(map[string]int64, len(ids))
	for name, id := range ids {
		if n, ok := frozen[name]; ok {
			got[name] = n
		} else {
			got[name] = tg.count(id)
		}
	}
	mm := mismatches(got, l.want)
	l.attempted += int64(len(l.want))
	for _, line := range mm {
		l.failed++
		fmt.Fprintf(os.Stderr, "%s: FAIL layer run %s output check: %s\n", l.sp.name, c, line)
	}

	switch c {
	case engineOnly:
		l.engineMetrics(eng, plan, nodes, events)
	case localShards:
		l.shardMetrics(se, wall, drainD, events)
	case pipeCluster:
		l.clusterMetrics(se, before, after, maintStats, len(addNS)+len(remNS), events)
	}
	if ch != nil && c == l.sp.deployment {
		l.set("live.add_p50_ms", p50(addNS)/1e6)
		l.set("live.remove_p50_ms", p50(remNS)/1e6)
		l.set("shard.apply_delta_p50_ms", p50(applyNS)/1e6)
		l.set("core.delta_ops_p50", p50(deltaOps))
	}
	l.check("close", tg.finish())
}

func applySpan(c layerConfig) string {
	if c == engineOnly {
		return "engine.apply_delta"
	}
	return "shard.apply_delta"
}

func drainSpan(c layerConfig) string {
	if c == engineOnly {
		return "engine.drain"
	}
	return "shard.drain"
}

func p50(xs []int64) float64 {
	v, _ := percentile(xs, 50)
	return float64(v)
}

func engineTarget(e *engine.Engine, tr *tracer) target {
	return target{
		push: func(st step, offset int64) error {
			tr.beginHot("engine.push")
			defer tr.end()
			if st.cols == nil {
				return e.Push(st.src, &stream.Tuple{TS: st.ts + offset, Vals: st.vals})
			}
			return e.PushColumns(st.src, columnTS(st, offset), st.cols)
		},
		drain: func() error { return nil },
		apply: func(m *live.Maintainer, q *core.Query, remove bool) (*core.Delta, error) {
			d, err := liveDelta(tr, m, q, remove)
			if err != nil {
				return nil, err
			}
			_, err = tr.span("engine.apply_delta", func() error { return live.Apply(d, e) })
			return d, err
		},
		count:  e.ResultCount,
		finish: func() error { return nil },
	}
}

// shardTarget mirrors what ShardedSystem does for each call: extend the
// pinned partition for a maintenance delta, falling back to a scoped
// rebalance when the pinned routes cannot serve it.
func shardTarget(se *shard.Engine, plan *core.Physical, part **core.PartitionPlan, tr *tracer) target {
	return target{
		push: func(st step, offset int64) error {
			tr.beginHot("shard.push")
			defer tr.end()
			if st.cols == nil {
				return se.Push(st.src, st.ts+offset, st.vals)
			}
			return se.PushColumns(st.src, columnTS(st, offset), st.cols)
		},
		drain: se.Drain,
		apply: func(m *live.Maintainer, q *core.Query, remove bool) (*core.Delta, error) {
			d, err := liveDelta(tr, m, q, remove)
			if err != nil {
				return nil, err
			}
			next, perr := core.ExtendPartition(plan, *part)
			apply := se.ApplyDelta
			var removed []int
			switch {
			case remove:
				removed = []int{q.ID}
				if perr != nil {
					next = *part
				}
			case perr != nil:
				next = core.AnalyzePartition(plan)
				next.Table = &core.RoutingTable{Version: (*part).RoutingVersion() + 1}
				apply = se.ApplyDeltaRebalance
			}
			_, err = tr.span("shard.apply_delta", func() error { return apply(d, next, removed, nil) })
			if err == nil {
				*part = next
			}
			return d, err
		},
		count:  se.ResultCount,
		finish: se.Close,
	}
}

// liveDelta runs the incremental rule pass for one add or remove.
func liveDelta(tr *tracer, m *live.Maintainer, q *core.Query, remove bool) (d *core.Delta, err error) {
	if remove {
		_, err = tr.span("live.remove", func() (err error) { d, err = m.RemoveQuery(q.ID); return })
	} else {
		_, err = tr.span("live.add", func() (err error) { d, err = m.AddQuery(q); return })
	}
	return d, err
}

// nodeAcc sums NodeStats per m-op kind across live maintenance: a node
// re-lowered by a delta starts its counters again, and a removed node
// takes them with it, so the counters are sampled before every delta and
// folded in whenever a node's counters drop or the node disappears.
type nodeAcc struct {
	last   map[int]engine.NodeStats
	kind   map[int]core.OpKind
	byKind map[core.OpKind]*engine.NodeStats
}

func newNodeAcc() *nodeAcc {
	return &nodeAcc{last: make(map[int]engine.NodeStats), kind: make(map[int]core.OpKind),
		byKind: make(map[core.OpKind]*engine.NodeStats)}
}

func (a *nodeAcc) fold(id int) {
	k, ok := a.kind[id]
	if !ok {
		return
	}
	s := a.byKind[k]
	if s == nil {
		s = &engine.NodeStats{}
		a.byKind[k] = s
	}
	ns := a.last[id]
	s.Processed += ns.Processed
	s.Emitted += ns.Emitted
	s.BusyNS += ns.BusyNS
}

func (a *nodeAcc) sample(e *engine.Engine, plan *core.Physical) {
	seen := make(map[int]bool)
	for _, ns := range e.NodeStats() {
		seen[ns.NodeID] = true
		if prev, ok := a.last[ns.NodeID]; ok && ns.Processed < prev.Processed {
			a.fold(ns.NodeID)
		}
		a.last[ns.NodeID] = ns
		if n := plan.Nodes[ns.NodeID]; n != nil {
			a.kind[ns.NodeID] = n.Kind
		}
	}
	for id := range a.last {
		if !seen[id] {
			a.fold(id)
			delete(a.last, id)
		}
	}
}

// finish folds the final counters and returns the per-kind sums.
func (a *nodeAcc) finish(e *engine.Engine, plan *core.Physical) map[core.OpKind]*engine.NodeStats {
	a.sample(e, plan)
	for id := range a.last {
		a.fold(id)
	}
	return a.byKind
}

func (l *layerRun) engineMetrics(e *engine.Engine, plan *core.Physical, nodes *nodeAcc, events float64) {
	push := l.tr.agg["engine.push"]
	l.set("engine.ns_per_event", float64(push.TotalNS)/events)
	l.set("engine.results_per_event", float64(e.TotalResults())/events)
	l.set("engine.blocks_per_kevent", float64(e.BlocksProcessed())*1000/events)
	snap := obs.NewSnapshot()
	e.MetricsInto(snap)
	l.set("engine.member_spills_per_event", float64(snap.Counters["engine_member_spills_total"])/events)
	byKind := nodes.finish(e, plan)
	for _, k := range mopKinds {
		a := byKind[k]
		if a == nil {
			continue
		}
		name := "mop." + strings.ToLower(k.String())
		l.set(name+".in_per_event", float64(a.Processed)/events)
		if a.Processed > 0 {
			l.set(name+".selectivity", float64(a.Emitted)/float64(a.Processed))
		}
		l.set(name+".busy_share", float64(a.BusyNS)/float64(push.TotalNS))
	}
}

func (l *layerRun) shardMetrics(se *shard.Engine, wall, drain time.Duration, events float64) {
	l.set("shard.push_ns_per_event", float64(l.tr.agg["shard.push"].TotalNS)/events)
	l.set("shard.drain_ms", float64(drain)/1e6)
	stats := se.ShardStats()
	var tuples, busy, maxBusy int64
	for _, st := range stats {
		tuples += st.Tuples
		busy += st.BusyNS
		maxBusy = max(maxBusy, st.BusyNS)
	}
	l.set("shard.rows_per_event", float64(tuples)/events)
	l.set("shard.busy_share", float64(busy)/float64(len(stats))/float64(wall))
	if busy > 0 {
		l.set("shard.skew", float64(maxBusy)*float64(len(stats))/float64(busy))
	}
	snap, err := se.Metrics()
	l.check("shard metrics", err)
	if err != nil {
		return
	}
	if h := snap.Hists["shard_flush_ns"]; h != nil {
		l.set("shard.flush_p50_us", histPercentile(h.Buckets[:], 50)/1e3)
		l.set("shard.flush_p99_us", histPercentile(h.Buckets[:], 99)/1e3)
	}
	if h := snap.Hists["shard_ingest_batch"]; h != nil {
		l.set("shard.batch_rows_p50", histPercentile(h.Buckets[:], 50))
	}
	var hw int64
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "shard_queue_highwater") {
			hw = max(hw, v)
		}
	}
	l.set("shard.queue_highwater", float64(hw))
	l.set("shard.wal_bytes_per_event", float64(snap.Counters["router_wal_bytes_total"])/events)
}

func (l *layerRun) clusterMetrics(se *shard.Engine, before, after, maint transport.Stats, ops int, events float64) {
	bytesAll := after.BytesSent - before.BytesSent + after.BytesRecv - before.BytesRecv
	framesAll := after.FramesSent - before.FramesSent + after.FramesRecv - before.FramesRecv
	l.set("transport.bytes_per_event", float64(bytesAll-maint.BytesSent)/events)
	l.set("transport.frames_per_kevent", float64(framesAll-maint.FramesSent)*1000/events)
	if ops > 0 {
		l.set("transport.bytes_per_maint", float64(maint.BytesSent)/float64(ops))
	}
	crc := after.CRCErrors - before.CRCErrors
	l.set("transport.crc_errors", float64(crc))
	var redials int64
	for _, h := range se.WorkerHealth() {
		redials += h.Redials
	}
	l.set("cluster.redials", float64(redials))
	snap, err := se.Metrics()
	l.check("cluster metrics", err)
	if err != nil {
		return
	}
	applied := snap.Counters["worker_batches_applied_total"]
	deduped := snap.Counters["worker_batches_deduped_total"]
	if applied > 0 {
		l.set("cluster.entries_per_batch", float64(snap.Counters["worker_entries_replayed_total"])/float64(applied))
		l.set("cluster.dedup_ratio", float64(deduped)/float64(applied))
	}
	// The link is clean, so nothing may have been retried or corrupted.
	for what, n := range map[string]int64{"CRC errors": crc, "deduplicated batches": deduped, "redials": redials} {
		l.check("clean link", zeroErr(what, n))
	}
}

func zeroErr(what string, n int64) error {
	if n != 0 {
		return fmt.Errorf("%d %s on an in-process link", n, what)
	}
	return nil
}

// layerMetrics adds the public-API run's harness metrics: generator
// lateness, tracing overhead, the reference's throughput and checkpoint
// size and decode time.
func (r *runner) layerMetrics(refEPS float64) map[string]metric {
	ms := make(map[string]metric)
	set := func(name string, v float64) { ms[name] = metric{v, perLayerUnit[name]} }
	late, _ := percentile(r.genLateNS, 99)
	set("bench.gen_late_p99_us", float64(late)/1e3)
	set("obs.trace_overhead_pct", 100*(1-median(r.tracedEPS)/median(r.closedEPS)))
	set("baseline.events_per_s", refEPS)
	maint, ok := percentile(append(append([]int64(nil), r.addNS...), r.removeNS...), 95)
	if !ok {
		r.attempted++
		r.fail("maintenance", fmt.Errorf("%d operations leave fewer than ten beyond the p95", len(r.addNS)+len(r.removeNS)))
	}
	set("rumor.maint_p95_ms", float64(maint)/1e6)
	set("wire.checkpoint_bytes", float64(r.ckpt.Len()))
	var decode []int64
	for i := 0; i < 5; i++ {
		d, err := r.tr.span("wire.read_checkpoint", func() error {
			_, err := wire.ReadCheckpoint(bytes.NewReader(r.ckpt.Bytes()))
			return err
		})
		r.check("decode checkpoint", err)
		decode = append(decode, int64(d))
	}
	set("wire.decode_ms", p50(decode)/1e6)
	return ms
}

// perLayerUnit lists every per-layer metric with its unit. README.md
// gives each one's layer and the end-to-end metric it moves.
var perLayerUnit = map[string]string{
	"core.plan_build_ms":             "ms",
	"rules.optimize_ms":              "ms",
	"engine.lower_ms":                "ms",
	"core.partition_ms":              "ms",
	"cluster.dial_ms":                "ms",
	"core.mops":                      "count",
	"core.operators":                 "count",
	"core.channels":                  "count",
	"engine.ns_per_event":            "ns",
	"engine.results_per_event":       "count",
	"engine.blocks_per_kevent":       "count",
	"engine.member_spills_per_event": "count",
	"mop.select.in_per_event":        "count",
	"mop.select.selectivity":         "ratio",
	"mop.select.busy_share":          "ratio",
	"mop.seq.in_per_event":           "count",
	"mop.seq.selectivity":            "ratio",
	"mop.seq.busy_share":             "ratio",
	"mop.mu.in_per_event":            "count",
	"mop.mu.selectivity":             "ratio",
	"mop.mu.busy_share":              "ratio",
	"mop.agg.in_per_event":           "count",
	"mop.agg.selectivity":            "ratio",
	"mop.agg.busy_share":             "ratio",
	"shard.push_ns_per_event":        "ns",
	"shard.overhead_ns_per_event":    "ns",
	"shard.busy_share":               "ratio",
	"shard.skew":                     "ratio",
	"shard.rows_per_event":           "count",
	"shard.flush_p50_us":             "us",
	"shard.flush_p99_us":             "us",
	"shard.batch_rows_p50":           "count",
	"shard.queue_highwater":          "count",
	"shard.wal_bytes_per_event":      "B",
	"shard.drain_ms":                 "ms",
	"live.add_p50_ms":                "ms",
	"live.remove_p50_ms":             "ms",
	"shard.apply_delta_p50_ms":       "ms",
	"core.delta_ops_p50":             "count",
	"transport.bytes_per_maint":      "B",
	"wire.checkpoint_bytes":          "B",
	"wire.decode_ms":                 "ms",
	"transport.bytes_per_event":      "B",
	"transport.frames_per_kevent":    "count",
	"transport.crc_errors":           "count",
	"cluster.dedup_ratio":            "ratio",
	"cluster.redials":                "count",
	"cluster.entries_per_batch":      "count",
	"cluster.overhead_ns_per_event":  "ns",
	"rumor.maint_p95_ms":             "ms",
	"bench.gen_late_p99_us":          "us",
	"obs.trace_overhead_pct":         "%",
	"baseline.events_per_s":          "1/s",
}

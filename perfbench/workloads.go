package main

import (
	"fmt"
	"time"

	rumor "repro"
	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/workload"
)

// passKind says what a pass does besides ingest.
type passKind int

const (
	plainPass passKind = iota // ingest only
	churnPass                 // ingest with live add/remove between steps
)

// spec is one benchmark workload: its input, its queries, how the system
// under test is deployed, and the reference it is checked against.
type spec struct {
	name    string
	streams []streamDecl
	feed    *feed
	base    func() []*core.Query // a fresh copy per system built
	pool    func() []*core.Query // transient queries for live churn
	deploy  func(qs []*core.Query, onResult func(string, int64, []int64)) (sut, error)
	// deployment is the layer configuration deploy builds; the traced run
	// runs it and every configuration nested inside it.
	deployment layerConfig

	// rate is the open-loop input rate in events per second. drainEvery,
	// when non-zero, makes the open loop drain every that many steps and
	// time each event until the drain that makes its results visible —
	// for deployments that make no result callbacks.
	rate       float64
	drainEvery int

	// churnEvery is the number of steps between maintenance operations;
	// a churn pass also checkpoints the given number of times, evenly
	// spaced. churnInClosed puts the churn into every closed-loop pass;
	// otherwise one extra churn pass runs after the open loop.
	churnEvery    int
	checkpoints   int
	churnInClosed bool
	minClosed     int // closed-loop passes run at least

	// expect replays the recorded pass kinds on the reference and returns
	// the per-query cumulative result counts it expects after each pass,
	// and the reference's own throughput in events per second.
	expect func(kinds []passKind) ([]map[string]int64, float64, error)
}

var specs = map[string]func(seed int64) (*spec, error){
	"w1-push":          w1Push,
	"perfmon-columns":  perfmonColumns,
	"w2-cluster-churn": w2ClusterChurn,
}

// workloadNames lists the workloads in the order the doc presents them.
var workloadNames = []string{"w1-push", "perfmon-columns", "w2-cluster-churn"}

// Sizes. A pass is about a tenth to half a second of closed-loop ingest on
// a 2-CPU host; maxWindow is the widest window any query of the workload
// uses, in timestamp units.
const (
	w1Events     = 500_000
	w1Queries    = 1000
	w1MaxWindow  = 1000
	pmSeconds    = 500
	pmProcs      = 104
	pmQueries    = 20
	pmMaxWindow  = 3600 + 60
	w2Events     = 100_000
	w2Queries    = 200
	w2MaxWindow  = 1000
	poolQueries  = 1000
	numShards    = 2
	setupRepeats = 9
	maxSetups    = 200
	// churnPoolSeed generates the transient queries of the churn. It does
	// not depend on --seed: the maintenance script is the same in every
	// run, so its timings vary with the system and the host, not with how
	// many pool queries happen to bring operators of their own (which
	// moved the remove times of w1 by 30 % from seed to seed).
	churnPoolSeed = 1000
)

// setupBudget is the least time spent on repeated set-ups: a set-up of a
// few milliseconds is repeated until the median of its timings settles.
const setupBudget = 500 * time.Millisecond

func benchStreams(p workload.Params) []streamDecl {
	attrs := make([]string, p.NumAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	return []streamDecl{{"S", attrs}, {"T", attrs}}
}

func eventSteps(events []workload.Event) []step {
	steps := make([]step, len(events))
	for i, ev := range events {
		steps[i] = step{src: ev.Source, ts: ev.Tuple.TS, vals: ev.Tuple.Vals}
	}
	return steps
}

// localSystem builds a System with the given queries: the set-up that
// setup_s times, from the first DeclareStream until ready to push.
func localSystem(streams []streamDecl, qs []*core.Query, onResult func(string, int64, []int64)) (*rumor.System, error) {
	s := rumor.New()
	if err := declare(streams, s.DeclareStream); err != nil {
		return nil, err
	}
	for _, q := range qs {
		if err := s.AddQuery(q.Name, q.Root); err != nil {
			return nil, err
		}
	}
	if onResult != nil {
		s.OnResult(onResult)
	}
	if err := s.Optimize(rumor.Options{Channels: true}); err != nil {
		return nil, err
	}
	return s, nil
}

func shardedSystem(streams []streamDecl, qs []*core.Query) (*rumor.ShardedSystem, error) {
	s := rumor.NewSharded(rumor.ShardConfig{Shards: numShards})
	if err := declare(streams, s.DeclareStream); err != nil {
		return nil, err
	}
	for _, q := range qs {
		if err := s.AddQuery(q.Name, q.Root); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// w1Push is Workload 1 at Table 3 defaults on a System, one Push per
// event of the alternating S/T feed, checked per query against the Cayuga
// automaton.
func w1Push(seed int64) (*spec, error) {
	p := workload.DefaultParams()
	p.Seed = seed
	p.NumQueries = w1Queries
	pp := p
	pp.Seed = churnPoolSeed
	pp.NumQueries = poolQueries
	sp := &spec{
		name:        "w1-push",
		streams:     benchStreams(p),
		feed:        newFeed(eventSteps(p.GenStreams(w1Events)), w1MaxWindow),
		base:        func() []*core.Query { return mustRUMOR(p.Workload1()) },
		pool:        func() []*core.Query { return mustRUMOR(pp.Workload1()) },
		rate:        250_000,
		churnEvery:  w1Events / 200,
		checkpoints: 20,
		minClosed:   3,
	}
	sp.deploy = func(qs []*core.Query, onResult func(string, int64, []int64)) (sut, error) {
		s, err := localSystem(sp.streams, qs, onResult)
		if err != nil {
			return nil, err
		}
		return systemSUT{s}, nil
	}
	sp.expect = func(kinds []passKind) ([]map[string]int64, float64, error) {
		// The automaton has no live maintenance, so it checks the base
		// queries only; a churn pass must leave them unchanged.
		aqs := p.Workload1()
		eng := automaton.NewEngine(p.Schemas())
		ids := make([]int, len(aqs))
		for i, q := range aqs {
			id, err := eng.AddQuery(q)
			if err != nil {
				return nil, 0, err
			}
			ids[i] = id
		}
		start := time.Now()
		for i := 0; i < sp.feed.len(); i++ {
			st := sp.feed.step(i)
			eng.Process(st.src, &stream.Tuple{TS: st.ts, Vals: st.vals})
		}
		eps := float64(sp.feed.events) / time.Since(start).Seconds()
		delta := make(map[string]int64, len(aqs))
		for i, q := range aqs {
			delta[q.Name] = eng.ResultCount(ids[i])
		}
		return repeatDeltas(kinds, delta, delta), eps, nil
	}
	return sp, nil
}

// perfmonColumns is the §5.3 hybrid workload on a local 2-shard
// ShardedSystem, one PushColumns per trace second, checked per query
// against a System fed one Push per event.
func perfmonColumns(seed int64) (*spec, error) {
	tr := workload.PerfTrace{NumProcs: pmProcs, Seconds: pmSeconds, Seed: seed}
	events := tr.Events()
	steps := make([]step, 0, pmSeconds)
	for off := 0; off < len(events); off += pmProcs {
		rows := events[off : off+pmProcs]
		cols := [][]int64{make([]int64, pmProcs), make([]int64, pmProcs)}
		for i, ev := range rows {
			if ev.Tuple.TS != rows[0].Tuple.TS {
				return nil, fmt.Errorf("perfmon trace: second %d is not contiguous", rows[0].Tuple.TS)
			}
			cols[0][i], cols[1][i] = ev.Tuple.Vals[0], ev.Tuple.Vals[1]
		}
		steps = append(steps, step{src: "CPU", ts: rows[0].Tuple.TS, cols: cols})
	}
	streams := []streamDecl{{"CPU", []string{"pid", "load"}}}
	sp := &spec{
		name:        "perfmon-columns",
		streams:     streams,
		feed:        newFeed(steps, pmMaxWindow),
		base:        func() []*core.Query { return workload.DefaultHybrid(pmQueries, 0.5).Queries() },
		pool:        func() []*core.Query { return workload.DefaultHybrid(poolQueries, 0.3).Queries() },
		deployment:  localShards,
		rate:        100_000,
		churnEvery:  1,
		checkpoints: 20,
		minClosed:   3,
	}
	sp.deploy = func(qs []*core.Query, onResult func(string, int64, []int64)) (sut, error) {
		s, err := shardedSystem(streams, qs)
		if err != nil {
			return nil, err
		}
		s.OnResult(onResult)
		if err := s.Optimize(rumor.Options{Channels: true}); err != nil {
			return nil, err
		}
		return shardedSUT{s: s}, nil
	}
	sp.expect = func(kinds []passKind) ([]map[string]int64, float64, error) {
		// One plain pass and one churn pass on the reference give the
		// per-pass counts every later pass of that kind must repeat.
		got, eps, err := systemReference(sp, []passKind{plainPass, churnPass})
		if err != nil {
			return nil, 0, err
		}
		plain := got[0]
		churned := make(map[string]int64, len(got[1]))
		for name, n := range got[1] {
			churned[name] = n - plain[name]
		}
		return repeatDeltas(kinds, plain, churned), eps, nil
	}
	return sp, nil
}

// w2ClusterChurn is Workload 2's sequence queries on a 2-worker pipe
// cluster with live churn and checkpoints between pushes, checked per
// query against a System replaying the same feed and churn.
func w2ClusterChurn(seed int64) (*spec, error) {
	p := workload.DefaultParams()
	p.Seed = seed
	p.NumQueries = w2Queries
	pp := p
	pp.Seed = churnPoolSeed
	pp.NumQueries = poolQueries
	sp := &spec{
		name:          "w2-cluster-churn",
		streams:       benchStreams(p),
		feed:          newFeed(eventSteps(p.GenStreams(w2Events)), w2MaxWindow),
		base:          func() []*core.Query { return mustRUMOR(p.Workload2Seq()) },
		pool:          func() []*core.Query { return mustRUMOR(pp.Workload2Seq()) },
		deployment:    pipeCluster,
		rate:          100_000,
		drainEvery:    500,
		churnEvery:    4000,
		checkpoints:   10,
		churnInClosed: true,
		minClosed:     8,
	}
	sp.deploy = func(qs []*core.Query, _ func(string, int64, []int64)) (sut, error) {
		workers := startPipeWorkers(numShards, rumor.ServeShard)
		s, err := shardedSystem(sp.streams, qs)
		if err == nil {
			err = s.DialCluster(rumor.Options{Channels: true}, rumor.ClusterConfig{Nodes: workers.nodes()})
		}
		if err != nil {
			workers.stop()
			return nil, err
		}
		return shardedSUT{s: s, workers: workers}, nil
	}
	sp.expect = func(kinds []passKind) ([]map[string]int64, float64, error) {
		return systemReference(sp, kinds)
	}
	return sp, nil
}

func mustRUMOR(qs []*automaton.Query) []*core.Query {
	out, err := workload.ToRUMOR(qs)
	if err != nil {
		panic(fmt.Sprintf("translating generated queries: %v", err)) // generator bug
	}
	return out
}

// repeatDeltas turns per-pass counts into the cumulative counts expected
// after each pass.
func repeatDeltas(kinds []passKind, plain, churned map[string]int64) []map[string]int64 {
	out := make([]map[string]int64, len(kinds))
	cum := make(map[string]int64)
	for i, k := range kinds {
		d := plain
		if k == churnPass {
			d = churned
		}
		for name, n := range d {
			cum[name] += n
		}
		out[i] = make(map[string]int64, len(cum))
		for name, n := range cum {
			out[i][name] = n
		}
	}
	return out
}

// systemReference replays the passes on a System fed one Push per row,
// with the same churn schedule, and snapshots every query's count after
// each pass.
func systemReference(sp *spec, kinds []passKind) ([]map[string]int64, float64, error) {
	qs := sp.base()
	s, err := localSystem(sp.streams, qs, nil)
	if err != nil {
		return nil, 0, err
	}
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = q.Name
	}
	ch := newChurn(sp.pool(), sp.churnEvery)
	var out []map[string]int64
	var rows int
	var busy time.Duration
	for pass, k := range kinds {
		offset := int64(pass) * sp.feed.span
		start := time.Now()
		for i := 0; i < sp.feed.len(); i++ {
			st := sp.feed.step(i)
			if err := pushRows(s, st, offset); err != nil {
				return nil, 0, err
			}
			if k != churnPass {
				continue
			}
			if o, ok := ch.tick(); ok {
				if err := applyOp(systemSUT{s}, o); err != nil {
					return nil, 0, err
				}
				if o.add {
					names = append(names, o.name)
				}
			}
		}
		if k == churnPass && !sp.churnInClosed {
			for _, o := range ch.drainOps() {
				if err := applyOp(systemSUT{s}, o); err != nil {
					return nil, 0, err
				}
			}
		}
		busy += time.Since(start)
		rows += sp.feed.events
		snap := make(map[string]int64, len(names))
		for _, n := range names {
			snap[n] = s.ResultCount(n)
		}
		out = append(out, snap)
	}
	return out, float64(rows) / busy.Seconds(), nil
}

// pushRows pushes a step one row at a time.
func pushRows(s *rumor.System, st step, offset int64) error {
	if st.cols == nil {
		return s.Push(st.src, st.ts+offset, st.vals...)
	}
	for r := range st.cols[0] {
		vals := make([]int64, len(st.cols))
		for a := range vals {
			vals[a] = st.cols[a][r]
		}
		if err := s.Push(st.src, st.ts+offset, vals...); err != nil {
			return err
		}
	}
	return nil
}

func applyOp(s sut, o op) error {
	if o.add {
		return s.add(o.name, o.root)
	}
	return s.remove(o.name)
}

package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	rumor "repro"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/zipf"
)

// The churn figure measures the live query lifecycle through the public
// AddQueryLive/RemoveQuery API of System and ShardedSystem: with a base
// query population running, queries are continuously added and removed —
// definitions drawn from the Zipf-skewed workload generators,
// removal victims Zipf-picked from the active transients — while the
// event stream keeps flowing. Reported per workload: per-operation add
// and remove latency (incremental rule run + delta splice + state
// migration), steady-state throughput without churn, throughput under
// churn, and the dip between the two (the cost of delta application on
// the ingestion path).

// ChurnRow is one (workload, runtime) churn measurement.
type ChurnRow struct {
	Workload string
	Mode     string // "engine" or "shard=N"

	Adds    int
	Removes int

	AddAvgUS, AddMaxUS float64 // add latency, microseconds
	RemAvgUS, RemMaxUS float64 // remove latency, microseconds

	OpEvery int // events between consecutive maintenance operations

	SteadyEPS float64 // events/s, no churn
	ChurnEPS  float64 // events/s while churning (maintenance time included)
	DipPct    float64 // 100 * (1 - ChurnEPS/SteadyEPS), at the OpEvery rate

	FinalQueries int // live queries at the end (base population retained)

	// Channel membership width over the churn cycle: live/total encoded
	// slots at the end of the run, and the minimum ratio observed after
	// any maintenance operation. Compaction + slot reuse keep MinSlotRatio
	// ≥ 0.5; without them tombstones accrete and the ratio decays toward 0.
	LiveSlots    int
	TotalSlots   int
	MinSlotRatio float64
}

// churnSystem is the public API surface the churn measurement drives; a
// System and a ShardedSystem both provide it.
type churnSystem interface {
	DeclareStream(name, sharableLabel string, attrs ...string) error
	AddQuery(name string, root *rumor.Logical) error
	Optimize(opt rumor.Options) error
	Push(streamName string, ts int64, vals ...int64) error
	AddQueryLive(name string, root *rumor.Logical) error
	RemoveQuery(name string) error
	PlanInfo() rumor.PlanInfo
}

// churnRun drives one churn measurement: base queries planned up front,
// then the event stream in three phases — warm-up, steady (timed, no
// churn), churn (timed, one maintenance operation every opEvery events).
func churnRun(catalog map[string]core.SourceDecl, base, pool []*core.Query,
	events []workload.Event, shards int, channels bool, seed int64) (ChurnRow, error) {
	row := ChurnRow{Mode: "engine"}
	if shards > 1 {
		row.Mode = fmt.Sprintf("shard=%d", shards)
	}
	if channels {
		row.Mode += "/ch"
	}
	var sys churnSystem = rumor.New()
	quiesce := func() error { return nil } // before reading the clock
	if shards > 1 {
		ss := rumor.NewSharded(rumor.ShardConfig{Shards: shards})
		defer ss.Close()
		sys, quiesce = ss, ss.Drain
	}
	for name, decl := range catalog {
		if err := sys.DeclareStream(name, decl.Label, decl.Schema.Attrs...); err != nil {
			return row, err
		}
	}
	for _, q := range base {
		if err := sys.AddQuery(q.Name, q.Root); err != nil {
			return row, err
		}
	}
	if err := sys.Optimize(rumor.Options{Channels: channels}); err != nil {
		return row, err
	}
	push := func(ev workload.Event) error {
		return sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...)
	}

	warm := len(events) / 10
	steadyN := (len(events) - warm) / 2
	for _, ev := range events[:warm] {
		if err := push(ev); err != nil {
			return row, err
		}
	}
	if err := quiesce(); err != nil {
		return row, err
	}

	// Steady phase: no churn.
	start := time.Now()
	for _, ev := range events[warm : warm+steadyN] {
		if err := push(ev); err != nil {
			return row, err
		}
	}
	if err := quiesce(); err != nil {
		return row, err
	}
	row.SteadyEPS = rate(steadyN, time.Since(start))

	// Churn phase: one maintenance operation every opEvery events —
	// alternating adds (drawn in order from the Zipf-generated pool) and
	// removes (victims Zipf-picked from the active transients).
	churnEvents := events[warm+steadyN:]
	ops := 2 * len(pool)
	// Keep at least ~100 events between maintenance operations so the
	// churn-phase throughput reflects delta cost amortized over flowing
	// traffic, not back-to-back re-optimization.
	if cap := len(churnEvents) / 100; ops > cap {
		ops = cap
	}
	if ops < 10 {
		ops = 10
	}
	opEvery := len(churnEvents) / (ops + 1)
	if opEvery < 1 {
		opEvery = 1
	}
	row.OpEvery = opEvery
	victimGen := zipf.New(len(pool), 1.5, seed+41)
	var active []*core.Query
	nextAdd := 0
	var addDur, remDur []time.Duration
	row.MinSlotRatio = 1
	sampleWidth := func() {
		st := sys.PlanInfo()
		row.LiveSlots, row.TotalSlots = st.LiveSlots, st.TotalSlots
		if st.TotalSlots > 0 {
			if r := float64(st.LiveSlots) / float64(st.TotalSlots); r < row.MinSlotRatio {
				row.MinSlotRatio = r
			}
		}
	}
	sampleWidth()
	start = time.Now()
	sinceOp := 0
	for _, ev := range churnEvents {
		if err := push(ev); err != nil {
			return row, err
		}
		sinceOp++
		if sinceOp < opEvery {
			continue
		}
		sinceOp = 0
		if (len(addDur)+len(remDur))%2 == 0 && nextAdd < len(pool) {
			q := pool[nextAdd]
			nextAdd++
			t0 := time.Now()
			if err := sys.AddQueryLive(q.Name, q.Root); err != nil {
				return row, fmt.Errorf("add %s: %w", q.Name, err)
			}
			addDur = append(addDur, time.Since(t0))
			active = append(active, q)
		} else if len(active) > 0 {
			i := victimGen.Next0() % len(active)
			victim := active[i]
			active = append(active[:i], active[i+1:]...)
			t0 := time.Now()
			if err := sys.RemoveQuery(victim.Name); err != nil {
				return row, fmt.Errorf("remove %s: %w", victim.Name, err)
			}
			remDur = append(remDur, time.Since(t0))
		}
		sampleWidth()
	}
	if err := quiesce(); err != nil {
		return row, err
	}
	row.ChurnEPS = rate(len(churnEvents), time.Since(start))

	row.Adds, row.Removes = len(addDur), len(remDur)
	row.AddAvgUS, row.AddMaxUS = latencyUS(addDur)
	row.RemAvgUS, row.RemMaxUS = latencyUS(remDur)
	if row.SteadyEPS > 0 {
		row.DipPct = 100 * (1 - row.ChurnEPS/row.SteadyEPS)
	}
	row.FinalQueries = sys.PlanInfo().Queries
	return row, nil
}

func rate(n int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(n) / elapsed.Seconds()
}

func latencyUS(ds []time.Duration) (avg, max float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
		if us := float64(d.Microseconds()); us > max {
			max = us
		}
	}
	return float64(sum.Microseconds()) / float64(len(ds)), max
}

// Churn measures live add/remove churn over Workloads 1–3, on the single
// engine and (when shards > 1) on the sharded runtime.
func (cfg Config) Churn(shards int) ([]ChurnRow, error) {
	nBase := 500
	if nBase > cfg.MaxQueries {
		nBase = cfg.MaxQueries
	}
	nLive := nBase / 5 // transient pool: 20% of the base population
	if nLive < 10 {
		nLive = 10
	}

	type wl struct {
		name    string
		catalog map[string]core.SourceDecl
		qs      []*core.Query
		events  []workload.Event
	}
	var wls []wl
	p := workload.DefaultParams()
	p.Seed = cfg.Seed
	p.NumQueries = nBase + nLive
	w1, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		return nil, err
	}
	wls = append(wls, wl{"W1 (sigS;T, AN)", p.Catalog(), w1, p.GenStreams(cfg.Tuples)})
	w2, err := workload.ToRUMOR(p.Workload2Seq())
	if err != nil {
		return nil, err
	}
	wls = append(wls, wl{"W2 (S;eqT, AI)", p.Catalog(), w2, p.GenStreams(cfg.Tuples)})
	const k = 10
	wls = append(wls, wl{"W3 (Si;eqT)", p.Workload3Catalog(k), p.Workload3(k),
		p.Workload3Rounds(k, cfg.Rounds)})

	var rows []ChurnRow
	for _, w := range wls {
		base, pool := w.qs[:nBase], w.qs[nBase:]
		counts := []int{1}
		if shards > 1 {
			counts = append(counts, shards)
		}
		for _, n := range counts {
			// The channel-enabled pass exercises the churn-durability
			// machinery (tombstoning, slot reuse, compaction, replay) and
			// reports membership width over the cycle.
			for _, channels := range []bool{false, true} {
				row, err := churnRun(w.catalog, base, pool, w.events, n, channels, cfg.Seed)
				if err != nil {
					return rows, fmt.Errorf("%s (%d shards, channels=%v): %w", w.name, n, channels, err)
				}
				row.Workload = w.name
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FprintChurn renders churn rows as an aligned table. The width column
// reports channel membership slots live/total at the end of the cycle and
// the minimum live ratio observed after any maintenance operation ("-"
// when the plan has no channels).
func FprintChurn(w io.Writer, rows []ChurnRow) {
	fmt.Fprintf(w, "%-18s %-10s %5s %5s %6s %16s %16s %11s %11s %6s %12s\n",
		"workload", "mode", "adds", "rems", "every", "add us avg/max", "rem us avg/max",
		"steady ev/s", "churn ev/s", "dip%", "width l/t@min")
	for _, r := range rows {
		width := "-"
		if r.TotalSlots > 0 {
			width = fmt.Sprintf("%d/%d@%.2f", r.LiveSlots, r.TotalSlots, r.MinSlotRatio)
		}
		fmt.Fprintf(w, "%-18s %-10s %5d %5d %6d %7.0f/%-8.0f %7.0f/%-8.0f %11.0f %11.0f %5.1f%% %12s\n",
			r.Workload, r.Mode, r.Adds, r.Removes, r.OpEvery,
			r.AddAvgUS, r.AddMaxUS, r.RemAvgUS, r.RemMaxUS,
			r.SteadyEPS, r.ChurnEPS, r.DipPct, width)
	}
	fmt.Fprintln(w, strings.Repeat("-", 126))
}

// Command perfbench is the RUMOR benchmark. It runs one named workload
// through the public API, checks every query's result count against an
// independent reference, and prints the metrics as one JSON line:
//
//	perfbench --workload w1-push --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload again with spans around every call into a layer, runs
// nested layer configurations on the same feed, prints the per-layer
// metrics and writes the spans to a trace file under --out. README.md in
// this directory lists every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: w1-push, perfmon-columns or w2-cluster-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	out := flag.String("out", ".bench_build", "directory for the trace file")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	mk, ok := specs[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	sp, err := mk(seed)
	if err != nil {
		return err
	}
	var res result
	if traced {
		res, err = tracedRun(sp, seed, seconds, out)
	} else {
		r := newRunner(sp, seconds, nil)
		var ms map[string]metric
		ms, err = r.run()
		res = result{Attempted: r.attempted, Failed: r.failed, Metrics: ms}
	}
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	for n, m := range res.Metrics {
		if err := checkName(n, m.Unit); err != nil {
			return err
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tracedRun runs the public-API phases with spans, then the nested layer
// configurations, and merges their per-layer metrics.
func tracedRun(sp *spec, seed int64, seconds float64, out string) (result, error) {
	tr := newTracer()
	wallStart := time.Now()
	tr.begin("bench.run")
	r := newRunner(sp, seconds, tr)
	ms, err := r.run()
	if err != nil {
		return result{}, err
	}
	lr := &layerRun{sp: sp, tr: tr, want: r.wants[0], metrics: ms}
	lr.run()
	tr.end()
	wall := time.Since(wallStart).Nanoseconds()
	res := result{Attempted: r.attempted + lr.attempted, Failed: r.failed + lr.failed, Metrics: ms}

	// Spans nest on one goroutine, so self times must add up to the wall
	// time of the traced run; anything else means a span was left open or
	// overlapped another.
	if self := tr.selfTotal(); math.Abs(float64(wall-self)) > selfTolerance*float64(wall) {
		res.Attempted++
		res.Failed++
		fmt.Fprintf(os.Stderr, "%s: FAIL trace: self times sum to %d ns, wall time is %d ns\n", sp.name, self, wall)
	}
	tr.printSummary(os.Stderr, wall)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", sp.name, seed))
	if err := tr.writeFile(path, traceFile{Workload: sp.name, Seed: seed, WallNS: wall, Metrics: ms}); err != nil {
		return result{}, err
	}
	fmt.Fprintln(os.Stderr, "trace written to", path)
	return res, nil
}

// selfTolerance is the share of the traced run's wall time by which the
// summed span self times may differ from it.
const selfTolerance = 0.01

// endToEndUnit lists every end-to-end metric with its unit.
var endToEndUnit = map[string]string{
	"events_per_s":      "1/s",
	"latency_p50_us":    "us",
	"latency_p99_us":    "us",
	"allocs_per_event":  "count",
	"bytes_per_event":   "B",
	"heap_live_mb":      "MiB",
	"setup_s":           "s",
	"maint_add_ms":      "ms",
	"maint_remove_ms":   "ms",
	"checkpoint_p50_ms": "ms",
}

// endToEnd turns the untraced run's samples into the end-to-end metrics.
func (r *runner) endToEnd() map[string]metric {
	ms := make(map[string]metric)
	set := func(name string, v float64) { ms[name] = metric{v, endToEndUnit[name]} }
	set("events_per_s", median(r.closedEPS))
	set("allocs_per_event", float64(r.mallocs)/float64(r.closedRows))
	set("bytes_per_event", float64(r.allocBytes)/float64(r.closedRows))
	set("heap_live_mb", r.heapMB)
	set("setup_s", median(r.setupS))
	// Maintenance durations are mixtures: adds cost about ten times what
	// removes cost, and within each kind an operation that builds or drops
	// operators of its own costs several times one that only joins or
	// leaves shared ones, in a proportion that varies with the seed's
	// query pool. A median of such a mixture sits in the valley between
	// modes and jumps from run to run, so each kind reports the mean of its
	// middle half. The tail over both kinds is a per-layer metric
	// (rumor.maint_p95_ms): with millisecond operations it mostly counts
	// the host's stalls.
	if len(r.addNS) < 20 || len(r.removeNS) < 20 {
		r.attempted++
		r.fail("maintenance", fmt.Errorf("%d adds and %d removes; want at least 20 of each", len(r.addNS), len(r.removeNS)))
	}
	set("maint_add_ms", interquartileMean(r.addNS)/1e6)
	set("maint_remove_ms", interquartileMean(r.removeNS)/1e6)
	v, ok := percentile(r.ckptNS, 50)
	if !ok {
		r.attempted++
		r.fail("checkpoint", fmt.Errorf("%d checkpoints leave fewer than ten beyond the median", len(r.ckptNS)))
	}
	set("checkpoint_p50_ms", float64(v)/1e6)
	// Latency percentiles are taken per window of the open loop's schedule
	// (see latWindow) and the lower quartile over windows is reported:
	// neighbours on a shared host stall the generator for up to tens of
	// milliseconds, which only ever adds latency, so the least-disturbed
	// quarter of the windows moves with the system's own cost and not with
	// the host's. A window too small to support the percentile is skipped,
	// and the run fails when most windows are.
	for _, p := range []float64{50, 99} {
		var perWindow []float64
		for _, samples := range r.latNS {
			if v, ok := percentile(samples, p); ok {
				perWindow = append(perWindow, float64(v)/1e3)
			}
		}
		if len(perWindow)*2 < len(r.latNS) {
			r.attempted++
			r.fail("latency", fmt.Errorf("only %d of %d windows hold enough samples for the p%v", len(perWindow), len(r.latNS), p))
		}
		set(fmt.Sprintf("latency_p%v_us", p), quantile(perWindow, 25))
		fmt.Fprintf(os.Stderr, "%s: latency p%v over %d windows: q1 %.1fus, median %.1fus, q3 %.1fus\n", r.sp.name, p,
			len(perWindow), quantile(perWindow, 25), quantile(perWindow, 50), quantile(perWindow, 75))
	}
	var all []int64
	for _, samples := range r.latNS {
		all = append(all, samples...)
	}
	fmt.Fprintf(os.Stderr, "%s: %d closed passes (events/s q1 %.0f, median %.0f, q3 %.0f), %d adds, %d removes, %d checkpoints\n",
		r.sp.name, len(r.closedEPS), quantile(r.closedEPS, 25), quantile(r.closedEPS, 50), quantile(r.closedEPS, 75),
		len(r.addNS), len(r.removeNS), len(r.ckptNS))
	for _, t := range []struct {
		name    string
		samples []int64
	}{{"result latency", all}, {"generator lateness", r.genLateNS}, {"add", r.addNS}, {"remove", r.removeNS}, {"checkpoint", r.ckptNS}} {
		p := tailPercentile(len(t.samples))
		med, _ := percentile(t.samples, 50)
		tail, _ := percentile(t.samples, p)
		fmt.Fprintf(os.Stderr, "  %-18s n=%-8d p50=%.1fus p%v=%.1fus\n", t.name, len(t.samples), float64(med)/1e3, p, float64(tail)/1e3)
	}
	return ms
}

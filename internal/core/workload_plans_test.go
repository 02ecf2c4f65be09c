package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/workload"
)

func optimizedPlan(t *testing.T, cat map[string]core.SourceDecl, qs []*core.Query, channels bool) *core.Physical {
	t.Helper()
	p := core.NewPhysical(cat)
	for _, q := range qs {
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{Channels: channels}); err != nil {
		t.Fatal(err)
	}
	return p
}

// The paper's workloads keep their partition plans, and only the hybrid
// workload reads a source through paths of different depth: W1–W3
// batches still propagate breadth-first, while the hybrid CPU batches are
// drained one tuple at a time.
func TestWorkloadPartitionPlans(t *testing.T) {
	p := workload.DefaultParams()
	p.NumQueries = 100
	toRUMOR := func(qs []*core.Query, err error) []*core.Query {
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}
	w3 := "S1: hash(a0)\nS2: hash(a0)\nS3: hash(a0)\nS4: hash(a0)\nS5: hash(a0)\nS6: hash(a0)\nS7: hash(a0)\nS8: hash(a0)\nT: hash(a0)\n"
	for _, tc := range []struct {
		name   string
		cat    map[string]core.SourceDecl
		qs     []*core.Query
		plan   string
		uneven bool
	}{
		{"w1", p.Catalog(), toRUMOR(workload.ToRUMOR(p.Workload1())), "S: hash(a0)\nT: multicast(a0, 30 keys, 0 always)\n", false},
		{"w2-seq", p.Catalog(), toRUMOR(workload.ToRUMOR(p.Workload2Seq())), "S: hash(a0)\nT: hash(a0)\n", false},
		{"w2-mu", p.Catalog(), toRUMOR(workload.ToRUMOR(p.Workload2Mu())), "S: hash(a0)\nT: hash(a0)\n", false},
		{"w3", p.Workload3Catalog(8), p.Workload3(8), w3, false},
		{"hybrid", workload.PerfCatalog(), workload.DefaultHybrid(20, 0.5).Queries(), "CPU: hash(a0)\n", true},
	} {
		for _, channels := range []bool{false, true} {
			plan := optimizedPlan(t, tc.cat, tc.qs, channels)
			if got := core.AnalyzePartition(plan).String(); got != tc.plan {
				t.Errorf("%s channels=%v: partition plan\n%swant\n%s", tc.name, channels, got, tc.plan)
			}
			uneven := plan.UnevenSources()
			if tc.uneven != (len(uneven) > 0) || (tc.uneven && !uneven["CPU"]) {
				t.Errorf("%s channels=%v: uneven sources %v", tc.name, channels, uneven)
			}
		}
	}
}

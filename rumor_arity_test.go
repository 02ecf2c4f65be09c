package rumor_test

import (
	"errors"
	"testing"

	rumor "repro"
	"repro/internal/expr"
)

const arityScript = `
CREATE STREAM CPU(pid, load);
QUERY all := FILTER(load >= 0, CPU);
`

// arityPushes is the push family of both system types.
type arityPushes interface {
	Push(streamName string, ts int64, vals ...int64) error
	PushBatch(streamName string, ts []int64, vals [][]int64) error
	PushColumns(streamName string, ts []int64, cols [][]int64) error
	ResultCount(query string) int64
	TotalResults() int64
}

// checkArityRejected pushes wrong-arity input to CPU(pid, load) through
// every entry of the push family and requires ErrArity from each, with a
// batch whose valid rows precede its bad one rejected as a whole.
func checkArityRejected(t *testing.T, sys arityPushes) {
	t.Helper()
	for name, push := range map[string]func() error{
		"Push short": func() error { return sys.Push("CPU", 0, 17) },
		"Push long":  func() error { return sys.Push("CPU", 0, 17, 95, 1) },
		"PushBatch": func() error {
			return sys.PushBatch("CPU", []int64{1, 2, 3}, [][]int64{{1, 50}, {2, 60}, {3}})
		},
		"PushColumns": func() error {
			return sys.PushColumns("CPU", []int64{4, 5}, [][]int64{{1, 2}})
		},
	} {
		if err := push(); !errors.Is(err, rumor.ErrArity) {
			t.Fatalf("%s: err = %v, want ErrArity", name, err)
		}
	}
}

func TestArityErrorSystem(t *testing.T) {
	sys := rumor.New()
	if err := sys.ExecScript(arityScript); err != nil {
		t.Fatal(err)
	}
	if err := sys.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	checkArityRejected(t, sys)
	if n := sys.TotalResults(); n != 0 {
		t.Fatalf("rejected input produced %d results", n)
	}
	if err := sys.Push("CPU", 6, 1, 70); err != nil {
		t.Fatal(err)
	}
	if n := sys.ResultCount("all"); n != 1 {
		t.Fatalf("all = %d after one valid push, want 1", n)
	}
}

func TestArityErrorPushShared(t *testing.T) {
	sys := rumor.New()
	for _, n := range []string{"S1", "S2"} {
		if err := sys.DeclareStream(n, "grp", "a", "b"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.DeclareStream("T", "", "a", "b"); err != nil {
		t.Fatal(err)
	}
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	for _, n := range []string{"S1", "S2"} {
		if err := sys.AddQuery("q"+n, rumor.Seq(pred, 100, rumor.Scan(n), rumor.Scan("T"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	if err := sys.PushShared([]string{"S1", "S2"}, 0, 9); !errors.Is(err, rumor.ErrArity) {
		t.Fatalf("PushShared: err = %v, want ErrArity", err)
	}
	if err := sys.Push("T", 1, 9, 0); err != nil {
		t.Fatal(err)
	}
	if n := sys.TotalResults(); n != 0 {
		t.Fatalf("rejected shared tuple produced %d results", n)
	}
}

// TestArityErrorSharded: a wrong-arity push on a 2-shard system is a caller
// error, not a dead worker — nothing is routed, and the shards keep
// serving.
func TestArityErrorSharded(t *testing.T) {
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2})
	defer sys.Close()
	if err := sys.ExecScript(arityScript); err != nil {
		t.Fatal(err)
	}
	if err := sys.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	checkArityRejected(t, sys)
	if err := sys.Drain(); err != nil {
		t.Fatalf("Drain after rejected input: %v", err)
	}
	for _, st := range sys.ShardStats() {
		if st.Tuples != 0 {
			t.Fatalf("shard %d ingested %d tuples of rejected input", st.Shard, st.Tuples)
		}
	}
	if n := sys.TotalResults(); n != 0 {
		t.Fatalf("rejected input produced %d results", n)
	}
	if err := sys.PushColumns("CPU", []int64{6, 6}, [][]int64{{1, 2}, {70, 80}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := sys.ResultCount("all"); n != 2 {
		t.Fatalf("all = %d after two valid rows, want 2", n)
	}
}

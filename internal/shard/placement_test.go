package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/wire"
)

// itemCounts peeks every replica's stored state: per replica, the item
// count of each (operator, side).
func itemCounts(t *testing.T, sh *Engine) []map[[2]int]int {
	t.Helper()
	var out []map[[2]int]int
	err := sh.WithQuiesced(func(regs []Registry) error {
		for _, reg := range regs {
			counts := make(map[[2]int]int)
			for _, ref := range reg.Groups() {
				for _, side := range ref.Sides {
					pl, err := Peek(reg, ref.OpID, side, -1)
					if err != nil {
						return err
					}
					counts[[2]int{ref.OpID, side}] = pl.Len()
				}
			}
			out = append(out, counts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A width-changing import places replicated state as one full copy on
// every new replica — not only on shard 0, the one whose replicated sinks
// are observed — and unpartitioned state once, on shard 0.
func TestPlacementImportCopies(t *testing.T) {
	catalog := map[string]core.SourceDecl{
		"S": {Schema: streamSchema(t, "S")},
		"T": {Schema: streamSchema(t, "T")},
	}
	pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: 7}})
	qs := []*core.Query{
		core.NewQuery("pattern", core.SeqL(pred, 100, core.Scan("S"), core.Scan("T"))),
		core.NewQuery("total", core.AggL(core.AggCount, 1, 50, nil, core.Scan("T"))),
	}
	_, sh := buildPair(t, catalog, qs, false, 3)
	defer sh.Close()
	for ts := int64(0); ts < 90; ts++ {
		src := "S"
		if ts%3 == 0 {
			src = "T"
		}
		if err := sh.Push(src, ts, []int64{ts % 5, ts}); err != nil {
			t.Fatal(err)
		}
	}
	var groups []wire.GroupState
	err := sh.WithQuiesced(func(regs []Registry) error {
		for i, reg := range regs {
			for _, ref := range reg.Groups() {
				for _, side := range ref.Sides {
					pl, err := Peek(reg, ref.OpID, side, -1)
					if err != nil {
						return err
					}
					groups = append(groups, wire.GroupState{Shard: i, OpID: ref.OpID, Payload: pl})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	before := itemCounts(t, sh)

	wide, err := New(sh.plan, sh.part.WithMoves(nil), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	if err := wide.ImportGroups(groups, 3); err != nil {
		t.Fatal(err)
	}
	after := itemCounts(t, wide)
	dists := sh.part.OpSideDists(sh.plan)
	seen := make(map[core.StreamDist]bool)
	for k, n0 := range before[0] {
		total := 0
		for _, c := range before {
			total += c[k]
		}
		d := core.SideDistAt(dists, k[0], k[1]).Dist
		for i, c := range after {
			want := 0
			switch {
			case d == core.DistReplicated:
				want = n0
			case d == core.DistAny && i == 0:
				want = total
			case d != core.DistAny:
				t.Fatalf("operator %d side %d: unexpected %s state", k[0], k[1], d)
			}
			if c[k] != want {
				t.Fatalf("operator %d side %d (%s): %d items on shard %d of 4, want %d", k[0], k[1], d, c[k], i, want)
			}
		}
		if total > 0 {
			seen[d] = true
		}
	}
	if !seen[core.DistReplicated] || !seen[core.DistAny] {
		t.Fatalf("scenario requires stored replicated and unpartitioned state; saw %v", seen)
	}
}

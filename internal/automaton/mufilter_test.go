package automaton_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
)

// TestTranslationParityMuFilter extends the translation parity claim to µ
// filters other than the negated rebind key: an event whose key differs
// from an instance's must still reach the filter edge, which may delete
// the instance. The feed S(1,10), T(2,5), T(1,20) under the filter
// l[3] < r[1] deletes the instance at T(2,5), so T(1,20) rebinds nothing.
func TestTranslationParityMuFilter(t *testing.T) {
	key := expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}
	rebind := expr.NewAnd2(key, expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1})
	feed := []struct {
		src string
		tu  *stream.Tuple
	}{
		{"S", stream.NewTuple(0, 1, 10)},
		{"T", stream.NewTuple(1, 2, 5)},
		{"T", stream.NewTuple(2, 1, 20)},
		{"T", stream.NewTuple(3, 2, 30)},
		{"T", stream.NewTuple(4, 1, 40)},
	}
	for _, tc := range []struct {
		name   string
		filter expr.Pred2
	}{
		{"filter on last value", expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}},
		{"negated key", expr.Not2{P: key}},
		{"true", expr.True2{}},
		{"none", nil},
	} {
		q := &automaton.Query{Name: "mu", Stages: []automaton.Stage{
			{Kind: automaton.StageStart, Input: "S"},
			{Kind: automaton.StageMu, Input: "T", Window: 100, Pred: rebind, Filter: tc.filter},
		}}
		aut := automaton.NewEngine(schemas())
		id, err := aut.AddQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		var autRes []string
		aut.OnResult = func(_ int, tu *stream.Tuple) { autRes = append(autRes, tu.ContentKey()) }

		l, err := q.ToLogical()
		if err != nil {
			t.Fatal(err)
		}
		p := core.NewPhysical(map[string]core.SourceDecl{
			"S": {Schema: stream.MustSchema("S", "a", "b")},
			"T": {Schema: stream.MustSchema("T", "a", "b")},
		})
		cq := core.NewQuery(q.Name, l)
		if err := p.AddQuery(cq); err != nil {
			t.Fatal(err)
		}
		if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(p)
		if err != nil {
			t.Fatal(err)
		}
		var rumorRes []string
		eng.OnResult = func(_ int, tu *stream.Tuple) { rumorRes = append(rumorRes, tu.ContentKey()) }

		for _, ev := range feed {
			aut.Process(ev.src, ev.tu)
			if err := eng.Push(ev.src, ev.tu); err != nil {
				t.Fatal(err)
			}
		}
		sort.Strings(autRes)
		sort.Strings(rumorRes)
		if strings.Join(autRes, " ") != strings.Join(rumorRes, " ") || aut.ResultCount(id) != int64(len(autRes)) {
			t.Errorf("%s: automaton %v, RUMOR %v", tc.name, autRes, rumorRes)
		}
	}
}

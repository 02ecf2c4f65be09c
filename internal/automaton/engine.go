package automaton

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/stream"
)

// inst is an automaton instance: a partially matched pattern stored at a
// state. vals is the instance's state tuple; for µ states it is the
// original pattern prefix concatenated with the "last" bound event, as in
// the paper's Figure 4.
type inst struct {
	vals *stream.Tuple
	ts0  int64
	dead bool
}

// fedge is a forward edge: its (residual) predicate, equality-join hook,
// duration window, and the queries whose final state it reaches. Next
// states are tracked by the owning state's children (prefix sharing).
type fedge struct {
	pred    expr.Pred2
	hasEq   bool
	lAttr   int
	rAttr   int
	window  int64
	queries []int
}

// state is a non-start automaton state holding instances.
type state struct {
	key   string
	kind  StageKind
	input string

	// ; states: outgoing forward edges. µ states: exactly one edge whose
	// pred is the rebind predicate; each rebind emits along it.
	edges  []*fedge
	filter expr.Pred2      // µ filter edge
	fmap   *expr.SchemaMap // forward-edge schema map F (nil = concat)

	rightArity int // arity of the input stream (for µ last-slot sizing)

	maxWindow int64
	insts     []*inst
	hash      map[int64][]*inst // AI index (stable attrs only)
	aiAttr    int
	deadCount int

	// AN registration info peeled from the stage predicate.
	hasAN  bool
	anAttr int
	anVal  int64

	// Next states sharing this prefix, and deduplication by stage key.
	children      map[string]*state
	childrenOrder []*state
}

// startEdge is a forward edge of the (merged) start state of one stream.
type startEdge struct {
	pred     expr.Pred // residual admission predicate
	children map[string]*state
	order    []*state
}

// startState is the merged start state for one input stream: its forward
// edges are FR-indexed on equality constants.
type startState struct {
	fr  map[int]map[int64][]*startEdge
	seq []*startEdge
	// byKey dedupes edges for prefix merging.
	byKey map[string]*startEdge
}

// Engine is a Cayuga-style automaton engine over a forest of merged
// automata.
type Engine struct {
	schemas map[string]*stream.Schema

	starts map[string]*startState

	// AN index: stream → event attribute → constant → states worth
	// probing; anRest holds states whose edge predicates carry no
	// indexable constant.
	an     map[string]map[int]map[int64][]*state
	anRest map[string][]*state

	counts []int64
	// OnResult, if set, receives each accepted pattern.
	OnResult func(queryID int, t *stream.Tuple)

	nQueries int
}

// NewEngine builds an engine over the given stream schemas.
func NewEngine(schemas map[string]*stream.Schema) *Engine {
	return &Engine{
		schemas: schemas,
		starts:  make(map[string]*startState),
		an:      make(map[string]map[int]map[int64][]*state),
		anRest:  make(map[string][]*state),
	}
}

// AddQuery inserts a query automaton into the forest, sharing the longest
// identical prefix with existing automata (prefix state merging, §4.3).
// It returns the query ID used in result attribution.
func (e *Engine) AddQuery(q *Query) (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	for _, s := range q.Stages {
		if _, ok := e.schemas[s.Input]; !ok {
			return 0, fmt.Errorf("automaton %q: unknown stream %q", q.Name, s.Input)
		}
	}
	id := e.nQueries
	e.nQueries++
	e.counts = append(e.counts, 0)

	start := q.Stages[0]
	ss := e.starts[start.Input]
	if ss == nil {
		ss = &startState{byKey: make(map[string]*startEdge)}
		e.starts[start.Input] = ss
	}
	sp := start.StartPred
	if sp == nil {
		sp = expr.True{}
	}
	edge := ss.byKey[sp.Key()]
	if edge == nil {
		edge = &startEdge{pred: sp, children: make(map[string]*state)}
		ss.byKey[sp.Key()] = edge
		if attr, c, res, ok := expr.IndexableEq(sp); ok {
			edge.pred = res
			if ss.fr == nil {
				ss.fr = make(map[int]map[int64][]*startEdge)
			}
			byConst := ss.fr[attr]
			if byConst == nil {
				byConst = make(map[int64][]*startEdge)
				ss.fr[attr] = byConst
			}
			byConst[c] = append(byConst[c], edge)
		} else {
			ss.seq = append(ss.seq, edge)
		}
	}

	// Walk the remaining stages, sharing identical prefixes; arity tracks
	// the width of the tuples each stage receives from its predecessor.
	prefix := start.stageKey()
	children := edge.children
	orderSlot := &edge.order
	arity := e.schemas[start.Input].Arity()
	for i := 1; i < len(q.Stages); i++ {
		sg := q.Stages[i]
		prefix += "→" + sg.stageKey()
		st := children[prefix]
		if st == nil {
			st = e.newState(prefix, sg, arity)
			children[prefix] = st
			*orderSlot = append(*orderSlot, st)
			e.registerAN(st)
		}
		if sg.FMap != nil {
			arity = len(sg.FMap.Cols)
		} else {
			arity += st.rightArity
		}
		if i == len(q.Stages)-1 {
			st.edges[0].queries = append(st.edges[0].queries, id)
		}
		if st.children == nil {
			st.children = make(map[string]*state)
		}
		children = st.children
		orderSlot = &st.childrenOrder
	}
	return id, nil
}

// newState compiles one stage whose instances start from tuples of arity
// lArity: the edge predicate is peeled in order — first the AN-indexable
// right constant, then the AI-indexable equi-join conjunct — leaving the
// residual evaluated per (instance, event).
func (e *Engine) newState(key string, sg Stage, lArity int) *state {
	st := &state{
		key:        key,
		kind:       sg.Kind,
		input:      sg.Input,
		filter:     sg.Filter,
		fmap:       sg.FMap,
		rightArity: e.schemas[sg.Input].Arity(),
		maxWindow:  sg.Window,
	}
	pred := sg.Pred
	if sg.Kind == StageSeq {
		if attr, c, res, ok := expr.RightIndexableEq(pred); ok {
			st.hasAN, st.anAttr, st.anVal = true, attr, c
			pred = res
		}
	}
	// A µ key mismatch skips the instance untouched, which is sound only
	// for the conjuncts core.MuKey accepts (a filter that keeps every
	// instance a different key meets); any other equi-join conjunct stays
	// in the residual, so a mismatch still reaches the filter edge.
	var accept func(expr.AttrCmp2) bool
	if sg.Kind == StageMu {
		d := core.MuDef(pred, sg.Filter, sg.Window)
		accept = func(ac expr.AttrCmp2) bool {
			_, ok := core.MuKey(d, lArity, ac)
			return ok
		}
	}
	fe := &fedge{window: sg.Window}
	if la, ra, res, ok := expr.EqJoinPartsWhere(pred, accept); ok {
		fe.hasEq, fe.lAttr, fe.rAttr = true, la, ra
		pred = res
		// The AI hash is stable for ; states; for µ the instance attribute
		// may refer to the mutable "last" slot, so µ states evaluate the
		// equi-join inline instead.
		if sg.Kind == StageSeq {
			st.hash = make(map[int64][]*inst)
			st.aiAttr = la
		}
	}
	fe.pred = pred
	st.edges = []*fedge{fe}
	return st
}

// registerAN places the state into the AN index if its edge predicate had
// an equality constant over the event, else into the sequential rest list.
func (e *Engine) registerAN(st *state) {
	if st.hasAN {
		byAttr := e.an[st.input]
		if byAttr == nil {
			byAttr = make(map[int]map[int64][]*state)
			e.an[st.input] = byAttr
		}
		byConst := byAttr[st.anAttr]
		if byConst == nil {
			byConst = make(map[int64][]*state)
			byAttr[st.anAttr] = byConst
		}
		byConst[st.anVal] = append(byConst[st.anVal], st)
		return
	}
	e.anRest[st.input] = append(e.anRest[st.input], st)
}

// Process feeds one event from the named stream through the forest.
func (e *Engine) Process(streamName string, t *stream.Tuple) {
	// 1. Start state: admit new instances.
	if ss := e.starts[streamName]; ss != nil {
		if ss.fr != nil {
			for attr, byConst := range ss.fr {
				if attr >= len(t.Vals) {
					continue
				}
				for _, edge := range byConst[t.Vals[attr]] {
					e.admit(edge, t)
				}
			}
		}
		for _, edge := range ss.seq {
			e.admit(edge, t)
		}
	}
	// 2. Interior states reading this stream: AN probe + rest.
	if byAttr := e.an[streamName]; byAttr != nil {
		for attr, byConst := range byAttr {
			if attr >= len(t.Vals) {
				continue
			}
			for _, st := range byConst[t.Vals[attr]] {
				e.advance(st, t)
			}
		}
	}
	for _, st := range e.anRest[streamName] {
		e.advance(st, t)
	}
}

// admit evaluates a start edge and creates instances at its child states.
func (e *Engine) admit(edge *startEdge, t *stream.Tuple) {
	if !edge.pred.Eval(t) {
		return
	}
	for _, st := range edge.order {
		st.insert(t, e)
	}
}

// insert stores a fresh instance arriving from the previous stage.
func (st *state) insert(from *stream.Tuple, e *Engine) {
	in := &inst{ts0: from.TS}
	if st.kind == StageMu {
		vals := make([]int64, len(from.Vals)+st.rightArity)
		copy(vals, from.Vals)
		for i := 0; i < st.rightArity && i < len(from.Vals); i++ {
			vals[len(from.Vals)+i] = from.Vals[i]
		}
		in.vals = &stream.Tuple{TS: from.TS, Vals: vals}
	} else {
		in.vals = from
	}
	st.insts = append(st.insts, in)
	if st.hash != nil {
		v := in.vals.Vals[st.aiAttr]
		st.hash[v] = append(st.hash[v], in)
	}
}

// advance matches an event against the instances of a state.
func (e *Engine) advance(st *state, t *stream.Tuple) {
	st.expire(t.TS)
	if len(st.insts) == 0 {
		return
	}
	fe := st.edges[0]
	if st.hash != nil {
		v := t.Vals[fe.rAttr]
		bucket := st.hash[v]
		live := bucket[:0]
		for _, in := range bucket {
			if !in.dead {
				live = append(live, in)
			}
		}
		if len(live) == 0 {
			delete(st.hash, v)
		} else {
			st.hash[v] = live
		}
		n := len(live)
		for i := 0; i < n; i++ {
			e.step(st, fe, live[i], t)
		}
	} else {
		n := len(st.insts)
		for i := 0; i < n; i++ {
			in := st.insts[i]
			if in.dead {
				continue
			}
			if fe.hasEq && in.vals.Vals[fe.lAttr] != t.Vals[fe.rAttr] {
				continue
			}
			e.step(st, fe, in, t)
		}
	}
	st.maybeCompact()
}

// step applies the state's edge semantics to one instance.
func (e *Engine) step(st *state, fe *fedge, in *inst, t *stream.Tuple) {
	if fe.hasEq && st.hash != nil && in.vals.Vals[fe.lAttr] != t.Vals[fe.rAttr] {
		return
	}
	matched := fe.pred.Eval2(in.vals, t)
	age := t.TS - in.ts0
	inWindow := fe.window <= 0 || age <= fe.window
	if st.kind == StageSeq {
		if !matched {
			return // the implicit filter edge keeps the instance
		}
		if inWindow {
			e.traverse(st, fe, in, t)
		}
		// Matched instances leave the state (Cayuga ; semantics, §5.2).
		in.dead = true
		st.deadCount++
		return
	}
	// µ state: rebind / filter / delete.
	filterOK := st.filter != nil && st.filter.Eval2(in.vals, t)
	switch {
	case matched && filterOK:
		stay := &inst{vals: in.vals.Clone(), ts0: in.ts0}
		st.insts = append(st.insts, stay)
		st.rebindAndEmit(e, fe, in, t, inWindow)
	case matched:
		st.rebindAndEmit(e, fe, in, t, inWindow)
	case filterOK:
		// instance stays unchanged
	default:
		in.dead = true
		st.deadCount++
	}
}

func (st *state) rebindAndEmit(e *Engine, fe *fedge, in *inst, t *stream.Tuple, inWindow bool) {
	startArity := len(in.vals.Vals) - st.rightArity
	copy(in.vals.Vals[startArity:], t.Vals[:st.rightArity])
	if inWindow {
		start := &stream.Tuple{TS: in.ts0, Vals: in.vals.Vals[:startArity]}
		e.traverse(st, fe, &inst{vals: start, ts0: in.ts0}, t)
	}
}

// traverse moves the matched instance along the forward edge: to the next
// state, or to the final state (producing query results). The forward
// edge's schema map F, if any, rewrites the concatenated tuple (§4.2).
func (e *Engine) traverse(st *state, fe *fedge, in *inst, t *stream.Tuple) {
	out := concatEvent(in.vals, t)
	if st.fmap != nil {
		out = st.fmap.Apply(out)
	}
	for _, qid := range fe.queries {
		e.counts[qid]++
		if e.OnResult != nil {
			e.OnResult(qid, out)
		}
	}
	for _, child := range st.childrenOrder {
		child.insert(out, e)
	}
}

func concatEvent(l, r *stream.Tuple) *stream.Tuple {
	vals := make([]int64, 0, len(l.Vals)+len(r.Vals))
	vals = append(vals, l.Vals...)
	vals = append(vals, r.Vals...)
	return &stream.Tuple{TS: r.TS, Vals: vals}
}

func (st *state) expire(now int64) {
	if st.maxWindow <= 0 {
		return
	}
	i := 0
	for ; i < len(st.insts); i++ {
		in := st.insts[i]
		if now-in.ts0 <= st.maxWindow {
			break
		}
		if !in.dead {
			in.dead = true
			st.deadCount++
		}
	}
	if i > 0 {
		st.insts = st.insts[i:]
	}
}

func (st *state) maybeCompact() {
	if st.deadCount < 32 || st.deadCount*2 < len(st.insts) {
		return
	}
	live := st.insts[:0]
	for _, in := range st.insts {
		if !in.dead {
			live = append(live, in)
		}
	}
	st.insts = live
	st.deadCount = 0
	if st.hash != nil {
		for v, bucket := range st.hash {
			lb := bucket[:0]
			for _, in := range bucket {
				if !in.dead {
					lb = append(lb, in)
				}
			}
			if len(lb) == 0 {
				delete(st.hash, v)
			} else {
				st.hash[v] = lb
			}
		}
	}
}

// ResultCount returns the number of results produced for a query.
func (e *Engine) ResultCount(queryID int) int64 {
	if queryID < 0 || queryID >= len(e.counts) {
		return 0
	}
	return e.counts[queryID]
}

// TotalResults sums all query result counts.
func (e *Engine) TotalResults() int64 {
	var n int64
	for _, c := range e.counts {
		n += c
	}
	return n
}

// ResetCounts clears result counters (for warm-up passes).
func (e *Engine) ResetCounts() {
	for i := range e.counts {
		e.counts[i] = 0
	}
}

// Stats summarizes the forest for tests and diagnostics.
type Stats struct {
	Queries    int
	StartEdges int
	States     int
}

// Stats returns forest summary counts.
func (e *Engine) Stats() Stats {
	st := Stats{Queries: e.nQueries}
	seen := map[*state]bool{}
	var walk func(s *state)
	walk = func(s *state) {
		if seen[s] {
			return
		}
		seen[s] = true
		st.States++
		for _, c := range s.childrenOrder {
			walk(c)
		}
	}
	for _, ss := range e.starts {
		st.StartEdges += len(ss.byKey)
		for _, edge := range ss.byKey {
			for _, c := range edge.order {
				walk(c)
			}
		}
	}
	return st
}

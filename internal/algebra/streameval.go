package algebra

import (
	"errors"
	"fmt"

	"algrec/internal/algebra/stream"
	"algrec/internal/obsv"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// This file is the streaming execution runtime: it compiles an operator
// pipeline — a spine of σ/MAP/∪/× nodes — into a lazy iterator over
// internal/algebra/stream, planning σ-over-product subtrees with the
// cost-based join planner (planner.go) so the product is never
// materialized. Subexpressions outside the spine (relations, literals,
// differences, IFPs, calls) are evaluated by the host evaluator through the
// LeafEval seam and scanned as sets, which is what lets both the two-valued
// evaluator (eval.go) and internal/core's three-valued dual evaluator share
// one runtime: the spine operators are polarity-transparent, so the host
// closes polarity (and local IFP bindings) into its LeafEval.
//
// Wherever the naive σ-over-materialized-× evaluation (the
// internal/algebra/ref reference evaluator) succeeds, the pipeline computes
// the same set: it only ever prunes product pairs via pushed conjuncts and
// join keys, both of which are implied by the complete test, and the
// complete test is re-checked on every reconstructed element. Pruning also
// means a hash join never tests pairs whose keys differ, so it may succeed
// where the naive evaluation errors on such a pair. Budget boundaries differ
// by design — the reference rejects a product larger than MaxSetSize even
// when the selected output is small; the streaming path bounds only
// buffered output — so a budget error on one side may be a success on the
// other.

// LeafEval evaluates a subexpression the streaming compiler treats as an
// opaque leaf. The host evaluator closes its environment (database, local
// IFP bindings, polarity) into this function.
type LeafEval func(Expr) (value.Set, error)

// StreamEligible reports whether e is a pipeline the streaming runtime
// accepts as an entry point: a σ or MAP whose operator spine (σ/MAP/∪
// nodes) reaches a product. Plain selections and maps over already-small
// sets stay on the materialized path, where the canonical set operations
// are cheaper than re-sorting a stream.
func StreamEligible(e Expr) bool {
	switch e.(type) {
	case Select, Map:
		return spineHasProduct(e)
	default:
		return false
	}
}

// spineHasProduct walks the operator spine the compiler streams (σ, MAP, ∪)
// looking for a product to pipeline.
func spineHasProduct(e Expr) bool {
	switch ee := e.(type) {
	case Product:
		return true
	case Select:
		return spineHasProduct(ee.Of)
	case Map:
		return spineHasProduct(ee.Of)
	case Union:
		return spineHasProduct(ee.L) || spineHasProduct(ee.R)
	default:
		return false
	}
}

// pipeProfile accumulates the counters of one streamed pipeline, emitted as
// a single obsv.Stream event by StreamEval.
type pipeProfile struct {
	leaves    int // leaf scans feeding the pipeline
	scanned   int // elements read from leaf scans
	tested    int // complete-test evaluations (post pushdown and join keys)
	emitted   int // elements surviving their selection tests
	hashJoins int // hash-join steps built
	pushed    int // conjuncts pushed into leaf scans
}

// StreamEval evaluates an eligible pipeline lazily and collects the result
// into a canonical set, reporting one obsv.Stream event per call. The leaf
// function evaluates opaque subexpressions; budget caps the collected
// output size (the streaming counterpart of the materialized path's
// intermediate-set checks).
func StreamEval(e Expr, budget Budget, obs obsv.Collector, leaf LeafEval) (value.Set, error) {
	prof := &pipeProfile{}
	c := &streamCompiler{budget: budget, leaf: leaf, prof: prof}
	it, err := c.compile(e)
	if err != nil {
		return value.Set{}, err
	}
	out, err := stream.Collect(it, budget.MaxSetSize)
	if err != nil {
		if errors.Is(err, stream.ErrLimit) {
			return value.Set{}, fmt.Errorf("%w: streamed result exceeds MaxSetSize %d", ErrBudget, budget.MaxSetSize)
		}
		return value.Set{}, err
	}
	if obs != nil {
		obs.Stream(obsv.StreamStats{
			Op: opName(e), Leaves: prof.leaves, Scanned: prof.scanned,
			Tested: prof.tested, Emitted: prof.emitted, Result: out.Len(),
			HashJoins: prof.hashJoins, Pushed: prof.pushed,
		})
	}
	return out, nil
}

// opName names the pipeline's root operator for the observability event.
func opName(e Expr) string {
	switch e.(type) {
	case Select:
		return "select"
	case Map:
		return "map"
	case Union:
		return "union"
	case Product:
		return "product"
	default:
		return "expr"
	}
}

// streamCompiler turns spine expressions into iterators.
type streamCompiler struct {
	budget Budget
	leaf   LeafEval
	prof   *pipeProfile
}

func (c *streamCompiler) compile(e Expr) (stream.Iterator, error) {
	switch ee := e.(type) {
	case Select:
		if prod, isProd := ee.Of.(Product); isProd {
			it, ok, err := c.compileJoin(ee.Var, ee.Test, prod)
			if ok || err != nil {
				return it, err
			}
		}
		in, err := c.compile(ee.Of)
		if err != nil {
			return nil, err
		}
		// Iterators are single-use and pulled sequentially, so one
		// environment can be reused across elements.
		env := FEnv{}
		return stream.Filter(in, func(v value.Value) (bool, error) {
			c.prof.tested++
			env[ee.Var] = v
			keep, err := EvalTest(ee.Test, env)
			if err != nil {
				return false, err
			}
			if keep {
				c.prof.emitted++
			}
			return keep, nil
		}), nil
	case Map:
		in, err := c.compile(ee.Of)
		if err != nil {
			return nil, err
		}
		env := FEnv{}
		return stream.Transform(in, func(v value.Value) (value.Value, error) {
			env[ee.Var] = v
			return EvalF(ee.Out, env)
		}), nil
	case Union:
		l, err := c.compile(ee.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(ee.R)
		if err != nil {
			return nil, err
		}
		return stream.Concat(l, r), nil
	case Product:
		it, ok, err := c.compileJoin("", nil, ee)
		if ok || err != nil {
			return it, err
		}
		return c.scanLeaf(e)
	default:
		return c.scanLeaf(e)
	}
}

// scanLeaf materializes an opaque subexpression and scans it.
func (c *streamCompiler) scanLeaf(e Expr) (stream.Iterator, error) {
	s, err := c.leaf(e)
	if err != nil {
		return nil, err
	}
	c.prof.leaves++
	c.prof.scanned += s.Len()
	return stream.FromSet(s), nil
}

// compileJoin plans and instantiates a σ-over-product (or bare product)
// pipeline. ok=false means the planner refused the shape and the caller
// should fall back to scanning the materialized subexpression.
func (c *streamCompiler) compileJoin(v string, test FExpr, prod Product) (stream.Iterator, bool, error) {
	plan, ok := planJoin(v, test, prod, c.budget.NoHashJoin)
	if !ok {
		return nil, false, nil
	}
	// Evaluate every leaf in tree (in-)order — the order the materialized
	// path evaluates them, so leaf errors surface identically.
	n := len(plan.leaves)
	sets := make([]value.Set, n)
	sizes := make([]int, n)
	for i, l := range plan.leaves {
		s, err := c.leaf(l.expr)
		if err != nil {
			return nil, true, err
		}
		sets[i] = s
		sizes[i] = s.Len()
	}
	c.prof.leaves += n
	plan.reorder(sizes)
	// Apply the pushed filters while materializing each leaf's scan. A
	// filter error keeps the element: the complete re-check reproduces
	// whatever the materialized evaluation would have raised for the pairs
	// it actually forms.
	elems := make([][]value.Value, n)
	for i := range plan.leaves {
		l := &plan.leaves[i]
		c.prof.scanned += sets[i].Len()
		c.prof.pushed += len(l.filters)
		if len(l.filters) == 0 {
			elems[i] = sets[i].Elems()
			continue
		}
		kept := make([]value.Value, 0, sets[i].Len())
		env := FEnv{}
		for j := 0; j < sets[i].Len(); j++ {
			el := sets[i].At(j)
			env[plan.v] = el
			keep := true
			for _, f := range l.filters {
				ok, err := EvalTest(f, env)
				if err != nil {
					keep = true
					break
				}
				if !ok {
					keep = false
					break
				}
			}
			if keep {
				kept = append(kept, el)
			}
		}
		elems[i] = kept
	}
	it := &joinIter{plan: plan, elems: elems, prof: c.prof}
	it.idx = make([]*hashIndex, len(plan.steps))
	for si := 1; si < len(plan.steps); si++ {
		st := plan.steps[si]
		if len(st.buildKeys) == 0 {
			continue
		}
		it.idx[si] = buildIndex(elems[st.leaf], st.buildKeys)
		c.prof.hashJoins++
	}
	it.init()
	return it, true, nil
}

// hashIndex buckets one leaf's elements by the interned ID of their
// composite join key. Elements whose key fails to apply (a kind or arity
// mismatch) land in the loose bucket and join every probe, deferring the
// error or mismatch to the complete-test re-check.
type hashIndex struct {
	byID  map[intern.ID][]value.Value
	loose []value.Value
}

// buildIndex hashes elems on the composite key paths.
func buildIndex(elems []value.Value, keys []KeyPath) *hashIndex {
	idx := &hashIndex{byID: make(map[intern.ID][]value.Value, len(elems))}
	in := intern.Global()
	var buf []intern.ID
	for _, e := range elems {
		id, ok := joinKeyID(in, e, keys, &buf)
		if !ok {
			idx.loose = append(idx.loose, e)
			continue
		}
		idx.byID[id] = append(idx.byID[id], e)
	}
	return idx
}

// probe looks up the candidates matching the row's probe keys, appending
// the loose bucket. ok=false when a probe key fails to apply to the bound
// row, in which case the caller must fall back to the full leaf scan.
func (idx *hashIndex) probe(row []value.Value, keys []leafPath, parts *[]value.Value, ids *[]intern.ID) ([]value.Value, bool) {
	ps := (*parts)[:0]
	for _, k := range keys {
		v, ok := applyPath(row[k.leaf], k.path)
		if !ok {
			*parts = ps
			return nil, false
		}
		ps = append(ps, v)
	}
	*parts = ps
	in := intern.Global()
	var id intern.ID
	if len(ps) == 1 {
		id = in.Intern(ps[0])
	} else {
		is := (*ids)[:0]
		for _, v := range ps {
			is = append(is, in.Intern(v))
		}
		*ids = is
		id = in.InternTuple(is...)
	}
	bucket := idx.byID[id]
	if len(idx.loose) == 0 {
		return bucket, true
	}
	out := make([]value.Value, 0, len(bucket)+len(idx.loose))
	out = append(out, bucket...)
	out = append(out, idx.loose...)
	return out, true
}

// joinIter enumerates the join pipeline's rows with a cursor stack — one
// level per plan step — reconstructing the original nested product element
// and re-checking the complete test before emitting.
type joinIter struct {
	plan  *joinPlan
	elems [][]value.Value
	idx   []*hashIndex
	prof  *pipeProfile

	row   []value.Value   // current element per leaf
	cand  [][]value.Value // candidate list per step depth
	pos   []int           // cursor per step depth
	depth int
	done  bool
	env   FEnv          // complete-test environment, reused per row
	parts []value.Value // probe scratch
	ids   []intern.ID   // probe scratch
}

func (it *joinIter) init() {
	it.row = make([]value.Value, len(it.plan.leaves))
	it.cand = make([][]value.Value, len(it.plan.steps))
	it.pos = make([]int, len(it.plan.steps))
	it.cand[0] = it.elems[it.plan.steps[0].leaf]
	it.env = FEnv{}
}

// Next implements stream.Iterator: it advances the join odometer to the
// next row of the reordered leaves whose hash-probed candidates survive the
// complete selection test, reconstructing the original product shape before
// testing so pruning can never change the result.
func (it *joinIter) Next() (value.Value, bool, error) {
	if it.done {
		return nil, false, nil
	}
	d := it.depth
	for {
		if it.pos[d] >= len(it.cand[d]) {
			d--
			if d < 0 {
				it.done = true
				return nil, false, nil
			}
			continue
		}
		st := it.plan.steps[d]
		it.row[st.leaf] = it.cand[d][it.pos[d]]
		it.pos[d]++
		if d+1 < len(it.plan.steps) {
			next := it.plan.steps[d+1]
			if it.idx[d+1] != nil {
				c, ok := it.idx[d+1].probe(it.row, next.probeKeys, &it.parts, &it.ids)
				if !ok {
					c = it.elems[next.leaf]
				}
				it.cand[d+1] = c
			} else {
				it.cand[d+1] = it.elems[next.leaf]
			}
			it.pos[d+1] = 0
			d++
			continue
		}
		out := reconstruct(it.plan.shape, it.row)
		if it.plan.test != nil {
			it.prof.tested++
			it.env[it.plan.v] = out
			keep, err := EvalTest(it.plan.test, it.env)
			if err != nil {
				it.done = true
				return nil, false, err
			}
			if !keep {
				continue
			}
		}
		it.prof.emitted++
		it.depth = d
		return out, true, nil
	}
}

package expt

import (
	"fmt"
	"reflect"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/ivm"
	"algrec/internal/query"
	"algrec/internal/value"
)

// p11Inserts is the number of single-edge insert batches each P11 row
// replays against its views.
const p11Inserts = 8

// tcChainPlan compiles the transitive-closure program (EDB relation e) as a
// stratified datalog query plan — the subscription workload of P11.
func tcChainPlan() *query.Plan {
	return &query.Plan{
		Language:  query.LangDatalog,
		Semantics: query.SemStratified,
		Source:    "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).",
		Program: datalog.MustParse(`
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
`),
	}
}

// p11Schedule returns the insert batches extending an n-edge chain by one
// edge at a time: each insert makes one new node reachable from every
// earlier one, so the incremental engine derives O(n) facts per batch while
// a recompute re-derives all O(n²).
func p11Schedule(n int) [][]datalog.Fact {
	batches := make([][]datalog.Fact, p11Inserts)
	for i := range batches {
		k := int64(n + i)
		batches[i] = []datalog.Fact{{Pred: "e", Args: []value.Value{value.Int(k), value.Int(k + 1)}}}
	}
	return batches
}

// RunP11 measures incremental view maintenance against from-scratch
// re-evaluation (the -noivm ablation) on the deductive transitive-closure
// chain. Both sides replay the same insert schedule through ivm.View; the
// baseline views carry Budget.NoIVM so each Apply re-executes the plan and
// diffs the outcomes, while the optimized views run the counting/DRed delta
// engine. Timings cover only the Apply loop — view construction (the cold
// initial evaluation, identical for both) stays outside the clock. Both
// modes must produce identical per-batch deltas and identical final
// outcomes (the dlog-ivm oracle contract); the comparison is purely about
// cost.
func RunP11(sizes []int) (*Table, error) {
	t := &Table{ID: "P11", Title: "Incremental view maintenance vs from-scratch recompute (performance)", OK: true,
		Header: []string{"workload", "size", "noivm", "ivm", "speedup", "agree"}}
	if algebra.DefaultBudget.NoIVM {
		t.Notes = append(t.Notes, "-noivm is set: the ivm column also runs the recompute baseline")
	}
	t.Notes = append(t.Notes,
		"A/B via per-view Budget.NoIVM — no process-wide flips; timings are authoritative in serial runs",
		fmt.Sprintf("each row replays %d single-edge inserts extending the chain; deltas and outcomes must agree bit-for-bit", p11Inserts))
	plan := tcChainPlan()
	const reps = 3
	for _, n := range sizes {
		db := FactsDB("e", ChainEdges("e", n))
		schedule := p11Schedule(n)
		mkViews := func(b algebra.Budget) ([]*ivm.View, error) {
			views := make([]*ivm.View, reps)
			for i := range views {
				v, err := ivm.New(plan, db, query.Options{Budget: b})
				if err != nil {
					return nil, err
				}
				views[i] = v
			}
			return views, nil
		}
		replay := func(v *ivm.View) ([]*ivm.ResultDelta, error) {
			deltas := make([]*ivm.ResultDelta, len(schedule))
			for i, batch := range schedule {
				d, err := v.Apply(batch, nil)
				if err != nil {
					return nil, err
				}
				deltas[i] = d
			}
			return deltas, nil
		}

		baseViews, err := mkViews(algebra.Budget{NoIVM: true})
		if err != nil {
			return nil, err
		}
		var bDeltas []*ivm.ResultDelta
		var bErr error
		rep := 0
		settle()
		dB := minTimed(reps, func() { bDeltas, bErr = replay(baseViews[rep]); rep++ })
		if bErr != nil {
			return nil, bErr
		}

		optViews, err := mkViews(algebra.Budget{})
		if err != nil {
			return nil, err
		}
		var oDeltas []*ivm.ResultDelta
		var oErr error
		rep = 0
		settle()
		dO := minTimed(reps, func() { oDeltas, oErr = replay(optViews[rep]); rep++ })
		if oErr != nil {
			return nil, oErr
		}

		bOut, err := baseViews[reps-1].Outcome()
		if err != nil {
			return nil, err
		}
		oOut, err := optViews[reps-1].Outcome()
		if err != nil {
			return nil, err
		}
		agree := reflect.DeepEqual(bDeltas, oDeltas) && reflect.DeepEqual(bOut, oOut)
		if !agree {
			t.OK = false
		}
		tcLen := 0
		if d := oOut.Datalog; d != nil {
			for _, pf := range d.Preds {
				if pf.Pred == "tc" {
					tcLen = len(pf.True)
				}
			}
		}
		t.Add(fmt.Sprintf("ivmInsertChain(%d)", n), tcLen, dB, dO, speedup(dB, dO), agree)
	}
	return t, nil
}

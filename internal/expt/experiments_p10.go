package expt

import (
	"fmt"
	"runtime"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/translate"
	"algrec/internal/value"
)

// settle runs a GC so each timed block starts from a clean heap: the two
// modes of an A/B row allocate very differently, and without the barrier
// each measurement inherits the previous mode's GC pacing — the dominant
// noise source in the A/B deltas.
func settle() { runtime.GC() }

// BOMProgram returns a bill-of-materials program over a complete binary
// containment tree of n parts rooted at part 0 — the examples/bom query at
// benchmark scale: transitive containment plus the negation-guarded "parts
// the root does not contain". Stratified, so it also runs through the
// Theorem 4.3 positive-IFP translation.
func BOMProgram(n int) *datalog.Program {
	p := datalog.MustParse(`
contains(X, Y) :- sub(X, Y).
contains(X, Z) :- contains(X, Y), sub(Y, Z).
reach(Y) :- root(X), contains(X, Y).
missing(Y) :- part(Y), not reach(Y).
`)
	var facts []datalog.Fact
	facts = append(facts, datalog.Fact{Pred: "root", Args: []value.Value{value.Int(0)}})
	for k := 0; k < n; k++ {
		facts = append(facts, datalog.Fact{Pred: "part", Args: []value.Value{value.Int(int64(k))}})
		for _, c := range []int{2*k + 1, 2*k + 2} {
			if c < n {
				facts = append(facts, datalog.Fact{Pred: "sub", Args: []value.Value{value.Int(int64(k)), value.Int(int64(c))}})
			}
		}
	}
	p.AddFacts(facts...)
	return p
}

// equalSetMaps reports whether two named-set maps hold identical sets.
func equalSetMaps(a, b map[string]value.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || !value.Equal(av, bv) {
			return false
		}
	}
	return true
}

// RunP10 measures the ID-native delta fixpoint kernels against value-space
// delta rounds (the -noidsets ablation) on three workloads. The ifpTCChain
// rows isolate the kernels on a single algebra IFP: sorted-ID galloping
// union/diff, a join index built once per fixpoint instead of once per
// round, and constant union arms folded into round 0. The dlogBOM and
// dlogWinGame rows run full deductive pipelines — the examples/ programs at
// benchmark scale, translated to algebra= (Theorem 4.3 / Proposition 6.1)
// and evaluated under the valid semantics — so every recursive definition's
// rounds go through the kernels. Both modes must produce identical results
// (the -noidsets golden-equivalence contract); the comparison is purely
// about cost.
func RunP10(sizes []int) (*Table, error) {
	t := &Table{ID: "P10", Title: "ID-native delta fixpoint kernels vs value-space rounds (performance)", OK: true,
		Header: []string{"workload", "size", "noidsets", "idsets", "speedup", "agree"}}
	if algebra.DefaultBudget.NoIDSets {
		t.Notes = append(t.Notes, "-noidsets is set: the idsets column also runs the value-space baseline")
	}
	t.Notes = append(t.Notes,
		"A/B via per-call Budget.NoIDSets — no process-wide flips; timings are authoritative in serial runs",
		"dlogWinGame's Γ alternation re-enters many small fixpoints whose per-fixpoint setup (const conversion, join index) is not amortized — the ID kernels roughly break even there")
	base := algebra.Budget{NoIDSets: true}
	opt := algebra.Budget{}
	const reps = 3
	for _, n := range sizes {
		// Transitive closure of a chain as one algebra IFP — the kernel
		// microbenchmark (same workload as the recorded P8/P9 ifpTCChain
		// rows).
		m := n / 2
		db := FactsDB("move", ChainEdges("move", m))
		e := TCIFPExpr("move")
		var bset, oset value.Set
		var err error
		settle()
		dB := minTimed(reps, func() { bset, err = algebra.NewEvaluator(db, base).Eval(e) })
		if err != nil {
			return nil, err
		}
		settle()
		dO := minTimed(reps, func() { oset, err = algebra.NewEvaluator(db, opt).Eval(e) })
		if err != nil {
			return nil, err
		}
		agree := value.Equal(bset, oset)
		if !agree {
			t.OK = false
		}
		t.Add(fmt.Sprintf("ifpTCChain(%d)", m), oset.Len(), dB, dO, speedup(dB, dO), agree)

		// Bill of materials end to end: stratified program → positive
		// IFP-algebra (Theorem 4.3) → valid evaluation.
		bom := BOMProgram(m)
		cp, bdb, err := translate.StratifiedToPositiveIFP(bom)
		if err != nil {
			return nil, err
		}
		var bRes, oRes *core.Result
		settle()
		dBB := minTimed(reps, func() { bRes, err = core.EvalValid(cp, bdb, base) })
		if err != nil {
			return nil, err
		}
		settle()
		dBO := minTimed(reps, func() { oRes, err = core.EvalValid(cp, bdb, opt) })
		if err != nil {
			return nil, err
		}
		agreeBOM := equalSetMaps(bRes.Lower, oRes.Lower) && equalSetMaps(bRes.Upper, oRes.Upper)
		if !agreeBOM {
			t.OK = false
		}
		t.Add(fmt.Sprintf("dlogBOM(%d)", m), oRes.Lower["contains"].Len(), dBB, dBO, speedup(dBB, dBO), agreeBOM)

		// The win game end to end: non-stratified program → algebra=
		// (Proposition 6.1) → three-valued valid evaluation.
		win := WinProgram(RandomGraph("move", m, 2*m, 7))
		wp, wdb, err := translate.DatalogToCore(win)
		if err != nil {
			return nil, err
		}
		var bWin, oWin *core.Result
		settle()
		dWB := minTimed(reps, func() { bWin, err = core.EvalValid(wp, wdb, base) })
		if err != nil {
			return nil, err
		}
		settle()
		dWO := minTimed(reps, func() { oWin, err = core.EvalValid(wp, wdb, opt) })
		if err != nil {
			return nil, err
		}
		agreeWin := equalSetMaps(bWin.Lower, oWin.Lower) && equalSetMaps(bWin.Upper, oWin.Upper)
		if !agreeWin {
			t.OK = false
		}
		t.Add(fmt.Sprintf("dlogWinGame(%d)", m), oWin.Lower["win"].Len(), dWB, dWO, speedup(dWB, dWO), agreeWin)
	}
	return t, nil
}

package diffcheck

import (
	"algrec/internal/algebra"
	"algrec/internal/algebra/ref"
	"algrec/internal/core"
	"algrec/internal/translate"
)

// checkExprRef evaluates one expression with the production evaluator —
// streaming pipelines, planned hash joins, semi-naive and ID-native
// fixpoints — and with the naive reference evaluator (internal/algebra/ref),
// demanding identical sets. The reference materializes every product, so it
// may exhaust its budget where production streams; pairErr skips those.
//
// The error contract is one-sided: production must succeed wherever the
// reference does, but a hash join never tests the pairs whose keys differ,
// so it may succeed where naive σ-over-× fails on such a pair. The reference
// is undefined there, and the instance is not compared.
func checkExprRef(e algebra.Expr, db algebra.DB) error {
	const oracle = "expr-ref"
	prod, errP := algebra.NewEvaluator(db, ExprBudget).Eval(e)
	want, errR := ref.Eval(e, db, ExprBudget)
	if errP == nil && errR != nil {
		return nil
	}
	if done, err := pairErr(oracle, "production", "reference", errP, errR); done {
		return err
	}
	return diffSets(oracle, "production vs reference result", prod, want)
}

// checkExprSemiNaive runs one expression through the delta (semi-naive) IFP
// engine and through the naive engine, demanding identical sets. This is the
// engine pair every IFP in the repository rides on; the delta side is also
// where FaultDropMax plants its corruption.
func checkExprSemiNaive(e algebra.Expr, db algebra.DB) error {
	const oracle = "expr-seminaive"
	naive, errN := algebra.NewEvaluator(db, noSemiNaive(ExprBudget)).Eval(e)
	delta, errD := algebra.NewEvaluator(db, ExprBudget).Eval(e)
	if done, err := pairErr(oracle, "naive", "semi-naive", errN, errD); done {
		return err
	}
	delta = applyDropMax(delta)
	return diffSets(oracle, "IFP engine result", naive, delta)
}

// checkExprIFPElim runs an IFP expression directly and through the Theorem
// 3.5 pipeline — translate to deduction (Prop 5.1), step-index away the
// recursion (Prop 5.2), translate back to IFP-free algebra= (Prop 6.1) —
// then evaluates the translated program under the valid semantics. The
// theorem demands the result be total and equal to the direct value. A
// translation error is a skip (a feature gap, not an engine disagreement);
// anything after a successful translation must line up.
func checkExprIFPElim(e algebra.Expr, db algebra.DB) error {
	const oracle = "expr-ifp-elim"
	direct, errD := algebra.NewEvaluator(db, ExprBudget).Eval(e)
	cp, cdb, resultName, errT := translate.EliminateIFP(e, db)
	if errT != nil {
		return nil // translation gap or grounding budget: not comparable
	}
	res, errV := core.EvalValid(cp, cdb, ExprBudget)
	if done, err := pairErr(oracle, "direct eval", "eliminated program", errD, errV); done {
		return err
	}
	if !res.IsTotal(resultName) {
		return diverge(oracle, "eliminated program left %q three-valued: undef %v",
			resultName, res.UndefElems(resultName))
	}
	return diffSets(oracle, "IFP value", direct, res.Set(resultName))
}

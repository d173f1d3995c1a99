// Package ref is the reference evaluator for the algebra and IFP-algebra: a
// naive, value-space interpreter by structural recursion over algebra.Expr.
// It has no planner, no streaming pipelines, no hash joins, no semi-naive
// deltas and no interned-ID kernels — × materializes the full product, σ
// filters it, and IFP recomputes its body from the whole accumulator every
// round — so each operator's meaning can be read off one switch arm.
//
// The production evaluator (algebra.Evaluator) is checked against it: the
// expr-ref differential oracle in internal/diffcheck and the algebra tests
// demand identical results on every error-free evaluation. Only tests and
// diffcheck import this package.
//
// Budgets: MaxIFPIters bounds every fixpoint and MaxSetSize bounds every
// product, union and fixpoint accumulator. Exhaustion errors wrap
// algebra.ErrBudget, which the oracles classify as a skip: the reference
// materializes products the streaming runtime never builds, so it may run
// out of budget where production succeeds.
package ref

import (
	"fmt"

	"algrec/internal/algebra"
	"algrec/internal/value"
)

// Eval evaluates e against db under budget (zero caps take the
// algebra.DefaultBudget values). Call nodes are rejected, exactly as by an
// algebra.Evaluator with no CallResolver.
func Eval(e algebra.Expr, db algebra.DB, budget algebra.Budget) (value.Set, error) {
	r := &evaluator{db: db, budget: budget.WithDefaults()}
	return r.eval(e, nil)
}

type evaluator struct {
	db     algebra.DB
	budget algebra.Budget
}

// eval evaluates e with the IFP variables bound in local, which shadow the
// database relations.
func (r *evaluator) eval(e algebra.Expr, local map[string]value.Set) (value.Set, error) {
	switch ee := e.(type) {
	case algebra.Rel:
		if s, ok := local[ee.Name]; ok {
			return s, nil
		}
		if s, ok := r.db[ee.Name]; ok {
			return s, nil
		}
		return value.Set{}, fmt.Errorf("ref: unknown relation %q", ee.Name)
	case algebra.Lit:
		return ee.Set, nil
	case algebra.Union:
		l, rr, err := r.pair(ee.L, ee.R, local)
		if err != nil {
			return value.Set{}, err
		}
		return r.bounded(l.Union(rr))
	case algebra.Diff:
		l, rr, err := r.pair(ee.L, ee.R, local)
		if err != nil {
			return value.Set{}, err
		}
		return l.Diff(rr), nil
	case algebra.Product:
		l, rr, err := r.pair(ee.L, ee.R, local)
		if err != nil {
			return value.Set{}, err
		}
		// Checked before materializing, by division so the size cannot
		// overflow.
		if l.Len() > 0 && rr.Len() > r.budget.MaxSetSize/l.Len() {
			return value.Set{}, fmt.Errorf("%w: ref: product of %d x %d elements exceeds MaxSetSize %d",
				algebra.ErrBudget, l.Len(), rr.Len(), r.budget.MaxSetSize)
		}
		return l.Product(rr), nil
	case algebra.Select:
		of, err := r.eval(ee.Of, local)
		if err != nil {
			return value.Set{}, err
		}
		return of.Select(func(v value.Value) (bool, error) {
			return algebra.EvalTest(ee.Test, algebra.FEnv{ee.Var: v})
		})
	case algebra.Map:
		of, err := r.eval(ee.Of, local)
		if err != nil {
			return value.Set{}, err
		}
		return of.Map(func(v value.Value) (value.Value, error) {
			return algebra.EvalF(ee.Out, algebra.FEnv{ee.Var: v})
		})
	case algebra.IFP:
		return r.ifp(ee, local)
	case algebra.Flip:
		// A polarity annotation: the identity on total databases.
		return r.eval(ee.E, local)
	case algebra.Call:
		return value.Set{}, fmt.Errorf("ref: call to %q but the reference evaluator has no definitions", ee.Name)
	default:
		return value.Set{}, fmt.Errorf("ref: unknown expression %T", e)
	}
}

// pair evaluates two operands left to right.
func (r *evaluator) pair(le, re algebra.Expr, local map[string]value.Set) (value.Set, value.Set, error) {
	l, err := r.eval(le, local)
	if err != nil {
		return value.Set{}, value.Set{}, err
	}
	rr, err := r.eval(re, local)
	if err != nil {
		return value.Set{}, value.Set{}, err
	}
	return l, rr, nil
}

// ifp iterates X ← X ∪ body(X) from X = ∅ until X stops growing.
func (r *evaluator) ifp(e algebra.IFP, local map[string]value.Set) (value.Set, error) {
	inner := make(map[string]value.Set, len(local)+1)
	for k, v := range local {
		inner[k] = v
	}
	x := value.EmptySet
	for iter := 0; iter < r.budget.MaxIFPIters; iter++ {
		inner[e.Var] = x
		body, err := r.eval(e.Body, inner)
		if err != nil {
			return value.Set{}, err
		}
		next, err := r.bounded(x.Union(body))
		if err != nil {
			return value.Set{}, err
		}
		if next.Len() == x.Len() {
			return x, nil
		}
		x = next
	}
	return value.Set{}, fmt.Errorf("%w: ref: IFP did not converge within %d iterations", algebra.ErrBudget, r.budget.MaxIFPIters)
}

// bounded enforces MaxSetSize on a computed set.
func (r *evaluator) bounded(s value.Set) (value.Set, error) {
	if s.Len() > r.budget.MaxSetSize {
		return value.Set{}, fmt.Errorf("%w: ref: set of %d elements exceeds MaxSetSize %d",
			algebra.ErrBudget, s.Len(), r.budget.MaxSetSize)
	}
	return s, nil
}

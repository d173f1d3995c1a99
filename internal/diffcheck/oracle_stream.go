package diffcheck

import (
	"fmt"

	"algrec/internal/algebra"
	"algrec/internal/algebra/ref"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/translate"
	"algrec/internal/value"
)

// checkDlogStream translates one free-polarity program to algebra=
// (Proposition 6.1) and evaluates its valid model twice: with core.EvalValid,
// whose three-valued dual evaluator streams every σ/MAP over a product
// through the planned pushdown/hash-join pipelines, and with refValid, the
// same Section 2.2 alternation evaluated body by body through the naive
// reference evaluator. Every rule body of a translated program is a join, so
// this is the streaming runtime under polarity-sensitive leaves; certain and
// possible parts must coincide. The error contract is expr-ref's: the
// reference materializes products and tests pairs a hash join never visits,
// so an instance where only the reference fails is not compared.
func checkDlogStream(p *datalog.Program) error {
	const oracle = "dlog-stream"
	cp, db, errT := translate.DatalogToCore(p)
	if errT != nil {
		return nil // translation gap: not comparable
	}
	st, errSt := core.EvalValid(cp, db, ExprBudget)
	want, errR := refValid(cp, db, ExprBudget)
	if errSt == nil && errR != nil {
		return nil
	}
	if done, err := pairErr(oracle, "streaming valid", "reference valid", errSt, errR); done {
		return err
	}
	if err := diffSetMaps(oracle, "certain (lower) part", st.Lower, want.Lower); err != nil {
		return err
	}
	return diffSetMaps(oracle, "possible (upper) part", st.Upper, want.Upper)
}

// refValid computes the valid interpretation of p the way core's naive
// engine defines it — the alternation T ← Γ(Γ(T)) from T = ∅, where Γ(neg)
// runs Gauss-Seidel rounds over the definitions in order — but evaluates
// each body with ref.Eval. The reference has no polarity, so each body is
// first rewritten by polarize to read the pos and neg environments under
// distinct relation names.
func refValid(p *core.Program, db algebra.DB, budget algebra.Budget) (*core.Result, error) {
	q, err := p.Inline()
	if err != nil {
		return nil, err
	}
	budget = budget.WithDefaults()
	defined := map[string]bool{}
	t := map[string]value.Set{}
	for _, d := range q.Defs {
		defined[d.Name] = true
		t[d.Name] = value.EmptySet
	}
	gamma := func(neg map[string]value.Set) (map[string]value.Set, error) {
		lower := map[string]value.Set{}
		env := algebra.DB{}
		for k, s := range db {
			env[k] = s
		}
		for _, d := range q.Defs {
			lower[d.Name] = value.EmptySet
			env[polarName(d.Name, true)] = value.EmptySet
			env[polarName(d.Name, false)] = neg[d.Name]
		}
		for round := 0; ; round++ {
			if round >= budget.MaxIFPIters {
				return nil, fmt.Errorf("%w: reference Γ did not converge within %d rounds", algebra.ErrBudget, budget.MaxIFPIters)
			}
			changed := false
			for _, d := range q.Defs {
				s, err := ref.Eval(polarize(d.Body, true, defined, nil), env, budget)
				if err != nil {
					return nil, err
				}
				next := lower[d.Name].Union(s)
				if next.Len() > budget.MaxSetSize {
					return nil, fmt.Errorf("%w: reference defined set %q grew past MaxSetSize %d", algebra.ErrBudget, d.Name, budget.MaxSetSize)
				}
				if next.Len() != lower[d.Name].Len() {
					lower[d.Name] = next
					env[polarName(d.Name, true)] = next
					changed = true
				}
			}
			if !changed {
				return lower, nil
			}
		}
	}
	for round := 0; ; round++ {
		if round >= budget.MaxIFPIters {
			return nil, fmt.Errorf("%w: reference alternation did not converge within %d rounds", algebra.ErrBudget, budget.MaxIFPIters)
		}
		u, err := gamma(t)
		if err != nil {
			return nil, err
		}
		t2, err := gamma(u)
		if err != nil {
			return nil, err
		}
		if diffSetMaps("", "", t, t2) == nil {
			return &core.Result{Lower: t, Upper: u}, nil
		}
		t = t2
	}
}

// polarize rewrites e so that every reference to a defined constant names
// the environment its polarity reads: a positive occurrence reads
// polarName(n, true), a negative one — under an odd number of subtrahends
// or Flips — polarName(n, false). IFP variables in bound shadow defined
// constants and are left alone. Flip nodes are dropped once their polarity
// switch is applied.
func polarize(e algebra.Expr, positive bool, defined, bound map[string]bool) algebra.Expr {
	switch ee := e.(type) {
	case algebra.Rel:
		if defined[ee.Name] && !bound[ee.Name] {
			return algebra.Rel{Name: polarName(ee.Name, positive)}
		}
		return ee
	case algebra.Union:
		return algebra.Union{L: polarize(ee.L, positive, defined, bound), R: polarize(ee.R, positive, defined, bound)}
	case algebra.Diff:
		return algebra.Diff{L: polarize(ee.L, positive, defined, bound), R: polarize(ee.R, !positive, defined, bound)}
	case algebra.Product:
		return algebra.Product{L: polarize(ee.L, positive, defined, bound), R: polarize(ee.R, positive, defined, bound)}
	case algebra.Select:
		return algebra.Select{Of: polarize(ee.Of, positive, defined, bound), Var: ee.Var, Test: ee.Test}
	case algebra.Map:
		return algebra.Map{Of: polarize(ee.Of, positive, defined, bound), Var: ee.Var, Out: ee.Out}
	case algebra.IFP:
		inner := map[string]bool{ee.Var: true}
		for k := range bound {
			inner[k] = true
		}
		return algebra.IFP{Var: ee.Var, Body: polarize(ee.Body, positive, defined, inner)}
	case algebra.Flip:
		return polarize(ee.E, !positive, defined, bound)
	default:
		return e
	}
}

// polarName is the relation name under which polarize exposes one polarity
// of a defined constant; the prefixes cannot occur in a translated program.
func polarName(name string, positive bool) string {
	if positive {
		return "+" + name
	}
	return "-" + name
}

package translate

import (
	"sort"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/semantics"
	"algrec/internal/value"
)

// This file makes the paper's concluding remark executable: "The results of
// this work can be easily adjusted to capture other semantics for negation,
// e.g. the well-founded or the stable-model semantics, by modifying the
// definition of the initial valid model accordingly." An algebra= program is
// given a stable-model (or well-founded) reading by translating it to
// deduction (Proposition 5.4) and evaluating there, then converting each
// model back to sets.

// StableSets evaluates an algebra= program under the stable-model reading:
// each returned map is one stable model, giving the content of every defined
// set. maxUndef bounds the residual search as in Engine.StableModels. The
// models are returned in a deterministic order.
//
// On the paper's cyclic WIN game this branches: move(a,b), move(b,a) yields
// two stable models, {win = {a}} and {win = {b}}, while the valid semantics
// leaves both memberships undefined.
func StableSets(p *core.Program, db algebra.DB, maxUndef int) ([]map[string]value.Set, error) {
	return StableSetsBudget(p, db, maxUndef, ground.Budget{})
}

// StableSetsBudget is StableSets with an explicit grounding budget; the
// budget's Interrupt channel, when set, also cancels the residual search
// between candidate windows (Engine.SetInterrupt), so a server can abandon
// the whole pipeline on a deadline.
func StableSetsBudget(p *core.Program, db algebra.DB, maxUndef int, gb ground.Budget) ([]map[string]value.Set, error) {
	q, g, err := programToGround(p, db, gb)
	if err != nil {
		return nil, err
	}
	e := semantics.NewEngine(g)
	e.SetInterrupt(gb.Interrupt)
	models, err := e.StableModels(maxUndef)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]value.Set, 0, len(models))
	for _, m := range models {
		sets := map[string]value.Set{}
		for _, d := range q.Defs {
			sets[d.Name] = TrueSet(m, d.Name)
		}
		out = append(out, sets)
	}
	sort.Slice(out, func(i, j int) bool { return lessSetMap(out[i], out[j]) })
	return out, nil
}

// WellFoundedSets evaluates an algebra= program under the well-founded
// reading via the deductive translation, returning certain and possible
// bounds per defined set. On programs with positive IFP bodies and no
// recursive name under a double subtrahend, it coincides with
// core.EvalValid — that agreement is differentially fuzzed
// (internal/diffcheck, core-wellfounded oracle), mirroring the paper's
// remark. Two fuzzer-found boundaries limit the equivalence: a non-monotone
// IFP translates to flat recursion p ← E[v:=p], which matches the
// inflationary operator only for positive bodies (counterexample:
// ifp(v, diff(a, v))); and a recursive name under two subtrahends, e.g.
// def s = diff(m, diff(a, s)), is positive for the exact-set algebra but
// stays doubly negated through the translation's auxiliary predicate, whose
// three-valued well-founded evaluation leaves m∖a-elements undefined where
// the native alternation makes them certain. Unknown relation names are
// read as empty relations rather than rejected.
func WellFoundedSets(p *core.Program, db algebra.DB) (lower, upper map[string]value.Set, err error) {
	return WellFoundedSetsBudget(p, db, ground.Budget{})
}

// WellFoundedSetsBudget is WellFoundedSets with an explicit grounding
// budget (including its Interrupt cancellation channel).
func WellFoundedSetsBudget(p *core.Program, db algebra.DB, gb ground.Budget) (lower, upper map[string]value.Set, err error) {
	q, g, err := programToGround(p, db, gb)
	if err != nil {
		return nil, nil, err
	}
	wf := semantics.NewEngine(g).WellFounded()
	lower = map[string]value.Set{}
	upper = map[string]value.Set{}
	for _, d := range q.Defs {
		lower[d.Name] = TrueSet(wf, d.Name)
		upper[d.Name] = TrueSet(wf, d.Name).Union(UndefSet(wf, d.Name))
	}
	return lower, upper, nil
}

// programToGround translates an algebra= program plus database to a ground
// deductive program, also returning the inlined program (for the definition
// list). Only the relations the translated rules name become facts: no rule
// reads the others, and no defined set's model depends on them. Their
// elements still count against gb, one atom and one rule each, as if they
// had been grounded.
func programToGround(p *core.Program, db algebra.DB, gb ground.Budget) (*core.Program, *ground.Program, error) {
	q, err := p.Inline()
	if err != nil {
		return nil, nil, err
	}
	prog, err := CoreToDatalog(p)
	if err != nil {
		return nil, nil, err
	}
	named, unnamed := SplitDB(prog, db)
	spent := 0
	for _, s := range unnamed {
		spent += s.Len()
	}
	prog.AddFacts(DBFacts(named)...)
	rest, err := gb.Spend(spent)
	if err != nil {
		return nil, nil, err
	}
	g, err := ground.Ground(prog, rest)
	if err != nil {
		return nil, nil, ground.Refund(err, spent)
	}
	return q, g, nil
}

// SplitDB splits a database into the relations a deductive program names
// as a predicate, in a rule head or body, and the rest. Grounding only the
// named relations' facts gives every named predicate the same model: no
// rule reads the rest.
func SplitDB(p *datalog.Program, db algebra.DB) (named, rest algebra.DB) {
	preds := map[string]bool{}
	for _, pred := range p.Preds() {
		preds[pred] = true
	}
	named, rest = algebra.DB{}, algebra.DB{}
	for name, s := range db {
		if preds[name] {
			named[name] = s
		} else {
			rest[name] = s
		}
	}
	return named, rest
}

func lessSetMap(a, b map[string]value.Set) bool {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if c := a[k].Compare(b[k]); c != 0 {
			return c < 0
		}
	}
	return false
}

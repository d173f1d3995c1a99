package ground

import (
	"errors"
	"strings"
	"testing"

	"algrec/internal/datalog"
	"algrec/internal/value"
)

func mustGround(t *testing.T, src string) *Program {
	t.Helper()
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Ground(p, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGroundFacts(t *testing.T) {
	g := mustGround(t, "e(1, 2). e(2, 3). e(1, 2).")
	if g.NumAtoms() != 2 {
		t.Fatalf("atoms = %d, want 2 (duplicate fact deduped)", g.NumAtoms())
	}
	if len(g.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(g.Rules))
	}
	if _, ok := g.Lookup(datalog.Fact{Pred: "e", Args: []value.Value{value.Int(1), value.Int(2)}}); !ok {
		t.Error("e(1,2) not interned")
	}
}

func TestGroundTransitiveClosure(t *testing.T) {
	g := mustGround(t, `
e(1, 2). e(2, 3). e(3, 4).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
`)
	// tc over a 4-chain: pairs (i,j) with i<j: 6 atoms + 3 e atoms.
	if got := len(g.AtomsOf("tc")); got != 6 {
		t.Errorf("tc atoms = %d, want 6", got)
	}
	// ground rules: 3 facts + 3 base tc rules + chains: tc(1,2)e(2,3), tc(1,3)e(3,4),
	// tc(2,3)e(3,4) -> 3+3+3 = 9
	if got := len(g.Rules); got != 9 {
		t.Errorf("ground rules = %d, want 9", got)
	}
}

func TestGroundNegation(t *testing.T) {
	g := mustGround(t, `
move(a, b). move(b, c).
win(X) :- move(X, Y), not win(Y).
`)
	// possible win atoms: win(a), win(b); win(c) appears only negatively.
	wins := g.AtomsOf("win")
	keys := map[string]bool{}
	for _, id := range wins {
		keys[g.Atom(id).Key()] = true
	}
	for _, k := range []string{"win(a)", "win(b)", "win(c)"} {
		if !keys[k] {
			t.Errorf("atom %s not interned; got %v", k, keys)
		}
	}
	// win(c) must have no deriving rule.
	cid, _ := g.Lookup(datalog.Fact{Pred: "win", Args: []value.Value{value.String("c")}})
	for _, r := range g.Rules {
		if r.Head == cid {
			t.Error("win(c) should have no deriving rules")
		}
	}
}

func TestGroundAssignmentsAndTests(t *testing.T) {
	g := mustGround(t, `
n(1). n(2). n(3).
big(Y) :- n(X), Y = plus(X, 10), Y >= 12.
`)
	got := map[string]bool{}
	for _, id := range g.AtomsOf("big") {
		got[g.Atom(id).Key()] = true
	}
	if len(got) != 2 || !got["big(12)"] || !got["big(13)"] {
		t.Errorf("big atoms = %v, want big(12), big(13)", got)
	}
}

func TestGroundFunctionRecursionBudget(t *testing.T) {
	p := datalog.MustParse(`
n(0).
n(Y) :- n(X), Y = plus(X, 1).
`)
	_, err := Ground(p, Budget{MaxAtoms: 100})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected BudgetError, got %v", err)
	}
	if be.What != "atoms" || be.Limit != 100 {
		t.Errorf("budget error = %+v", be)
	}
	if !strings.Contains(be.Error(), "infinite") {
		t.Errorf("budget error message %q should warn about infinite relations", be)
	}
}

func TestGroundBoundedFunctionRecursion(t *testing.T) {
	// Same program with an explicit bound in the rule terminates.
	g := mustGround(t, `
n(0).
n(Y) :- n(X), Y = plus(X, 1), Y < 50.
`)
	if got := len(g.AtomsOf("n")); got != 50 {
		t.Errorf("n atoms = %d, want 50", got)
	}
}

func TestGroundUnsafeRule(t *testing.T) {
	p := datalog.MustParse("p(X) :- not q(X).\nq(1).\n")
	_, err := Ground(p, Budget{})
	if err == nil || !strings.Contains(err.Error(), "not restricted") {
		t.Fatalf("expected unsafe-rule error, got %v", err)
	}
	p2 := datalog.MustParse("p(X) :- X != 1.\n")
	_, err = Ground(p2, Budget{})
	if err == nil {
		t.Fatal("expected no-executable-order error")
	}
}

func TestGroundZeroArity(t *testing.T) {
	g := mustGround(t, `
one.
two :- one.
three :- two, not four.
`)
	if g.NumAtoms() != 4 {
		t.Fatalf("atoms = %d, want 4", g.NumAtoms())
	}
	if len(g.Rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(g.Rules))
	}
}

func TestGroundEmptyProgram(t *testing.T) {
	g := mustGround(t, "")
	if g.NumAtoms() != 0 || len(g.Rules) != 0 {
		t.Errorf("empty program grounded to %d atoms, %d rules", g.NumAtoms(), len(g.Rules))
	}
}

func TestGroundComplexHeadTerms(t *testing.T) {
	g := mustGround(t, `
e(1, 2).
pairset(tup(X, Y)) :- e(X, Y).
`)
	want := datalog.Fact{Pred: "pairset", Args: []value.Value{value.Pair(value.Int(1), value.Int(2))}}
	if _, ok := g.Lookup(want); !ok {
		t.Errorf("missing %s", want)
	}
}

func TestGroundMatchComplexArgs(t *testing.T) {
	// A positive atom with a function-term argument is checked, not inverted:
	// p(plus(X,1)) with X bound from d(X).
	g := mustGround(t, `
d(1). d(2).
p(2).
q(X) :- d(X), p(plus(X, 1)).
`)
	got := map[string]bool{}
	for _, id := range g.AtomsOf("q") {
		got[g.Atom(id).Key()] = true
	}
	if len(got) != 1 || !got["q(1)"] {
		t.Errorf("q atoms = %v, want q(1)", got)
	}
}

func TestGroundSharedVarJoin(t *testing.T) {
	g := mustGround(t, `
r(1, a). r(2, b).
s(a, x). s(b, y). s(a, z).
j(X, Z) :- r(X, Y), s(Y, Z).
`)
	got := map[string]bool{}
	for _, id := range g.AtomsOf("j") {
		got[g.Atom(id).Key()] = true
	}
	want := []string{"j(1, x)", "j(1, z)", "j(2, y)"}
	if len(got) != len(want) {
		t.Fatalf("j atoms = %v, want %v", got, want)
	}
	for _, k := range want {
		if !got[k] {
			t.Errorf("missing %s in %v", k, got)
		}
	}
}

func TestGroundPreds(t *testing.T) {
	g := mustGround(t, "b(1). a(X) :- b(X), not c(X).")
	if got := strings.Join(g.Preds(), ","); got != "a,b,c" {
		t.Errorf("Preds = %s", got)
	}
}

func TestGroundRuleBudget(t *testing.T) {
	p := datalog.MustParse(`
d(1). d(2). d(3). d(4). d(5).
p(X, Y, Z) :- d(X), d(Y), d(Z).
`)
	_, err := Ground(p, Budget{MaxRules: 10})
	var be *BudgetError
	if !errors.As(err, &be) || be.What != "rules" {
		t.Fatalf("expected rule BudgetError, got %v", err)
	}
}

// TestGroundFactOrderInterleaved: ground facts load as rows in pass 0, in
// program order with the other rules that have no positive atom, so atom
// ids and ground-rule order follow the program exactly as when every fact
// was planned as a rule.
func TestGroundFactOrderInterleaved(t *testing.T) {
	g := mustGround(t, `
p(1).
q(X) :- X = 2, not r(X).
p(plus(1, 2)).
s :- not t.
e(a, b).
p(1).
w(X) :- e(X, Y).
e(b, c).
`)
	wantAtoms := []string{"p(1)", "q(2)", "r(2)", "p(3)", "s()", "t()", "e(a, b)", "e(b, c)", "w(a)", "w(b)"}
	var atoms []string
	for id := 0; id < g.NumAtoms(); id++ {
		atoms = append(atoms, g.AtomKey(id))
	}
	if strings.Join(atoms, " ") != strings.Join(wantAtoms, " ") {
		t.Errorf("atoms by id = %v, want %v", atoms, wantAtoms)
	}
	wantRules := []string{"p(1)", "q(2) :- not r(2)", "p(3)", "s() :- not t()", "e(a, b)", "e(b, c)", "w(a) :- e(a, b)", "w(b) :- e(b, c)"}
	var rules []string
	for _, r := range g.Rules {
		var body []string
		for _, id := range r.Pos {
			body = append(body, g.AtomKey(id))
		}
		for _, id := range r.Neg {
			body = append(body, "not "+g.AtomKey(id))
		}
		s := g.AtomKey(r.Head)
		if len(body) > 0 {
			s += " :- " + strings.Join(body, ", ")
		}
		rules = append(rules, s)
	}
	if strings.Join(rules, "; ") != strings.Join(wantRules, "; ") {
		t.Errorf("rules = %v, want %v", rules, wantRules)
	}
}

// TestBudgetSpend: Spend charges facts left out of the program against both
// caps, fails at once when the charge alone fills a cap, and Refund makes a
// later BudgetError name the caller's own cap.
func TestBudgetSpend(t *testing.T) {
	b := Budget{MaxAtoms: 10, MaxRules: 20}
	rest, err := b.Spend(4)
	if err != nil || rest.MaxAtoms != 6 || rest.MaxRules != 16 {
		t.Fatalf("Spend(4) = %+v, %v; want caps 6/16", rest, err)
	}
	var be *BudgetError
	if _, err := b.Spend(10); !errors.As(err, &be) || be.What != "atoms" || be.Limit != 10 {
		t.Errorf("Spend(10) err = %v, want the atoms cap 10", err)
	}
	if _, err := (Budget{MaxAtoms: 50, MaxRules: 5}).Spend(5); !errors.As(err, &be) || be.What != "rules" || be.Limit != 5 {
		t.Errorf("Spend(5) under 5 rules: err = %v, want the rules cap 5", err)
	}
	p, err := datalog.ParseProgram("e(1). e(2). e(3). e(4). e(5). e(6). e(7).")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Ground(p, rest)
	if err = Refund(err, 4); !errors.As(err, &be) || be.What != "atoms" || be.Limit != 10 {
		t.Errorf("7 facts beside 4 spent under 10 atoms: err = %v, want the atoms cap 10", err)
	}
	if err := Refund(errors.New("other"), 4); err.Error() != "other" {
		t.Errorf("Refund changed a non-budget error: %v", err)
	}
}

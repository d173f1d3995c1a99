package query

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/obsv"
	"algrec/internal/value"
)

var (
	sa, sb = value.String("a"), value.String("b")
	sym    = func(s string) value.Value { return value.String(s) }
)

// unnamedRels are relations no test program names, chosen to sort before,
// between and after the programs' own predicates. aaa mixes scalars, a
// 1-tuple equal as a fact to its scalar, a pair and a 3-tuple; empty has no
// facts at all.
func unnamedRels() algebra.DB {
	return algebra.DB{
		"aaa": value.NewSet(value.Int(1), value.NewTuple(value.Int(1)), value.Pair(value.Int(2), sb),
			sym("c"), value.NewTuple(sa, sb, sym("c"))),
		"nope":  value.NewSet(sym("x")),
		"zzz":   value.NewSet(value.Pair(sym("q"), sym("r"))),
		"empty": value.EmptySet,
	}
}

// unnamedFacts is how the relations of unnamedRels render: distinct facts,
// in the engines' fact order.
var unnamedFacts = []PredFacts{
	{Pred: "aaa", True: []string{"aaa(1)", "aaa(2, b)", "aaa(a, b, c)", "aaa(c)"}},
	{Pred: "nope", True: []string{"nope(x)"}},
	{Pred: "zzz", True: []string{"zzz(q, r)"}},
}

func withUnnamed(db algebra.DB) algebra.DB {
	out := db.Clone()
	for k, v := range unnamedRels() {
		out[k] = v
	}
	return out
}

func addUnnamedFacts(m DatalogModel) DatalogModel {
	preds := append(append([]PredFacts{}, m.Preds...), unnamedFacts...)
	sort.Slice(preds, func(i, j int) bool { return preds[i].Pred < preds[j].Pred })
	return DatalogModel{Preds: preds}
}

func pairs(ps ...[2]string) value.Set {
	var elems []value.Value
	for _, p := range ps {
		elems = append(elems, value.Pair(sym(p[0]), sym(p[1])))
	}
	return value.NewSet(elems...)
}

// datalogCases gives each datalog semantics a program it accepts, over a
// database the program reads.
func datalogCases() []struct {
	sem Semantics
	src string
	db  algebra.DB
} {
	graph := algebra.DB{
		"edge": pairs([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"d", "a"}),
		"node": value.NewSet(sa, sb, sym("c"), sym("d")),
	}
	// Two 2-cycles: four stable models, so their order is pinned too.
	moves := algebra.DB{"move": pairs([2]string{"a", "b"}, [2]string{"b", "a"}, [2]string{"c", "d"}, [2]string{"d", "c"}, [2]string{"e", "a"})}
	const win = "win(X) :- move(X, Y), not win(Y)."
	return []struct {
		sem Semantics
		src string
		db  algebra.DB
	}{
		{SemMinimal, "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).", graph},
		{SemStratified, "reach(X) :- edge(a, X). reach(Y) :- reach(X), edge(X, Y). out(X) :- node(X), not reach(X).", graph},
		{SemInflationary, win, moves},
		{SemWellFounded, win, moves},
		{SemValid, win, moves},
		{SemStable, win, moves},
	}
}

// TestDatalogUnnamedRelationsRendered: adding relations the program does
// not name to the database changes a datalog Outcome only by adding their
// facts to Preds — under every semantics, with the stable models in the
// same order.
func TestDatalogUnnamedRelationsRendered(t *testing.T) {
	for _, tc := range datalogCases() {
		p := mustCompile(t, LangDatalog, tc.sem, tc.src)
		want := mustExecute(t, p, tc.db, Options{})
		got := mustExecute(t, p, withUnnamed(tc.db), Options{})
		if tc.sem == SemStable {
			if len(want.DatalogModels) != 4 {
				t.Fatalf("stable: %d models, want 4", len(want.DatalogModels))
			}
			for i := range want.DatalogModels {
				want.DatalogModels[i] = addUnnamedFacts(want.DatalogModels[i])
			}
		} else {
			m := addUnnamedFacts(*want.Datalog)
			want.Datalog = &m
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: with unnamed relations\n got %+v\nwant %+v", tc.sem, got, want)
		}
	}
}

// TestDatalogHeadNamedRelationLoaded: a database relation sharing its name
// with a rule head is named by the program, so its facts are grounded and
// take part in the derivation.
func TestDatalogHeadNamedRelationLoaded(t *testing.T) {
	p := mustCompile(t, LangDatalog, SemWellFounded, "win(X) :- move(X, Y), not win(Y).")
	db := algebra.DB{
		"move": pairs([2]string{"a", "b"}, [2]string{"b", "c"}),
		"win":  value.NewSet(sym("c")),
	}
	out := mustExecute(t, p, db, Options{})
	var win *PredFacts
	for i := range out.Datalog.Preds {
		if out.Datalog.Preds[i].Pred == "win" {
			win = &out.Datalog.Preds[i]
		}
	}
	// win(c) holds as a fact, so b loses and a wins.
	if win == nil || strings.Join(win.True, " ") != "win(a) win(c)" || len(win.Undef) != 0 {
		t.Fatalf("win = %+v, want true win(a) win(c)", win)
	}
}

// groundAll grounds the program with every database relation as facts — the
// program Execute grounded before it left unnamed relations out — and
// returns its atom and rule counts.
func groundAll(t *testing.T, p *Plan, db algebra.DB) (atoms, rules int) {
	t.Helper()
	prog := &datalog.Program{Rules: append([]datalog.Rule{}, p.Program.Rules...)}
	prog.AddFacts(DBFacts(db)...)
	g, err := ground.Ground(prog, ground.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return g.NumAtoms(), len(g.Rules)
}

// TestDatalogUnnamedRelationsBudgetParity: unnamed relations' facts still
// count against the grounding budget. With MaxAtoms (or MaxRules) one below
// the total of grounding every relation, the request is still over budget
// and the error names the caller's cap; at the total it succeeds.
func TestDatalogUnnamedRelationsBudgetParity(t *testing.T) {
	for _, tc := range datalogCases() {
		p := mustCompile(t, LangDatalog, tc.sem, tc.src)
		db := withUnnamed(tc.db)
		atoms, rules := groundAll(t, p, db)
		for _, cap := range []struct {
			what string
			set  func(n int) ground.Budget
			n    int
		}{
			{"atoms", func(n int) ground.Budget { return ground.Budget{MaxAtoms: n} }, atoms},
			{"rules", func(n int) ground.Budget { return ground.Budget{MaxRules: n} }, rules},
		} {
			_, err := Execute(p, db, Options{Ground: cap.set(cap.n - 1)})
			var be *ground.BudgetError
			if ErrorCode(err, false) != "budget-exceeded" || !errors.As(err, &be) || be.What != cap.what || be.Limit != cap.n-1 {
				t.Errorf("%s: Max%s = %d (one below the total): err = %v, want %s budget error at %d",
					tc.sem, cap.what, cap.n-1, err, cap.what, cap.n-1)
			}
			if _, err := Execute(p, db, Options{Ground: cap.set(cap.n)}); err != nil {
				t.Errorf("%s: Max%s = %d (the total): %v", tc.sem, cap.what, cap.n, err)
			}
		}
	}
}

// TestAlgebraEqUnnamedRelationsIgnored: under the translation-based
// readings of algebra= (wellfounded and stable), relations the program does
// not name leave the Outcome unchanged.
func TestAlgebraEqUnnamedRelationsIgnored(t *testing.T) {
	const win = `def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);
query win;`
	db := algebra.DB{"move": pairs([2]string{"a", "b"}, [2]string{"b", "a"}, [2]string{"c", "a"})}
	for _, sem := range []Semantics{SemWellFounded, SemStable} {
		p := mustCompile(t, LangAlgebraEq, sem, win)
		want := mustExecute(t, p, db, Options{})
		got := mustExecute(t, p, withUnnamed(db), Options{})
		var wb, gb strings.Builder
		WriteAlgqText(&wb, want, true)
		WriteAlgqText(&gb, got, true)
		if gb.String() != wb.String() || got.WellDefined != want.WellDefined {
			t.Errorf("%s: with unnamed relations\n%s\nwant\n%s", sem, gb.String(), wb.String())
		}
		if sem == SemStable && len(got.Models) != 2 {
			t.Errorf("stable: %d readings, want 2", len(got.Models))
		}
	}
}

// gateDB is a fixed database shaped like the served benchmark graph: 3000
// edge pairs over 2000 nodes and 150 move pairs over 100 nodes.
func gateDB() algebra.DB {
	r := rand.New(rand.NewSource(1))
	gen := func(n, nodes int) value.Set {
		seen := map[[2]int]bool{}
		var elems []value.Value
		for len(elems) < n {
			p := [2]int{r.Intn(nodes), r.Intn(nodes)}
			if !seen[p] {
				seen[p] = true
				elems = append(elems, value.Pair(value.Int(int64(p[0])), value.Int(int64(p[1]))))
			}
		}
		return value.NewSet(elems...)
	}
	return algebra.DB{"edge": gen(3000, 2000), "move": gen(150, 100)}
}

const (
	gateDlWin = "win(X) :- move(X, Y), not win(Y)."
	gateEqWin = `def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);
query win;`
)

// TestGateWinGroundCounts pins the grounding work of the win game over the
// gate database: the 150 move facts and the win atoms they reach, and no
// atom or rule for the 3000 edge facts the program never names.
func TestGateWinGroundCounts(t *testing.T) {
	db := gateDB()
	for _, tc := range []struct {
		lang         Language
		sem          Semantics
		src          string
		atoms, rules int64
	}{
		{LangDatalog, SemWellFounded, gateDlWin, 248, 300},
		{LangAlgebraEq, SemWellFounded, gateEqWin, 6979, 7080},
	} {
		p := mustCompile(t, tc.lang, tc.sem, tc.src)
		st := obsv.NewStats()
		obsv.SetDefault(st)
		_, err := Execute(p, db, Options{})
		obsv.SetDefault(nil)
		if err != nil {
			t.Fatal(err)
		}
		snap := st.Snapshot()
		if snap["ground.calls"] != 1 || snap["ground.atoms"] != tc.atoms || snap["ground.rules"] != tc.rules {
			t.Errorf("%s %s: ground calls/atoms/rules = %d/%d/%d, want 1/%d/%d", tc.lang, tc.sem,
				snap["ground.calls"], snap["ground.atoms"], snap["ground.rules"], tc.atoms, tc.rules)
		}
	}
}

// TestGateWinAllocs pins an allocation ceiling per Execute of the win game
// over the gate database, in the datalog and algebra= languages: 25% above
// the count measured when the ceiling was set. Unlike wall-clock gates, an
// allocation count does not flake.
func TestGateWinAllocs(t *testing.T) {
	db := gateDB()
	for _, tc := range []struct {
		lang    Language
		sem     Semantics
		src     string
		ceiling float64
	}{
		{LangDatalog, SemWellFounded, gateDlWin, 20_333}, // measured 16266: rendering the 3000 edge facts
		{LangAlgebraEq, SemValid, gateEqWin, 236},        // measured 189
	} {
		p := mustCompile(t, tc.lang, tc.sem, tc.src)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Execute(p, db, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("%s %s: Execute allocates %v, ceiling %v", tc.lang, tc.sem, allocs, tc.ceiling)
		}
	}
}

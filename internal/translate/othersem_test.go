package translate

import (
	"errors"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog/ground"
	"algrec/internal/value"
)

// TestStableSetsWinBranching: the paper's conclusion promises the results
// adjust to the stable-model semantics; on the pure 2-cycle game the stable
// reading branches into two models, one per winner.
func TestStableSetsWinBranching(t *testing.T) {
	db := algebra.DB{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "a"})}
	models, err := StableSets(winCore(), db, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("got %d stable readings, want 2", len(models))
	}
	a := value.NewSet(value.String("a"))
	b := value.NewSet(value.String("b"))
	if !value.Equal(models[0]["win"], a) || !value.Equal(models[1]["win"], b) {
		t.Errorf("stable WIN sets = %v, %v; want {a}, {b}", models[0]["win"], models[1]["win"])
	}
	// The odd loop S = {a} − S has no stable reading at all.
	p := &core.Program{Defs: []core.Def{{Name: "s",
		Body: algebra.Diff{L: algebra.Singleton(value.String("a")), R: algebra.Rel{Name: "s"}}}}}
	none, err := StableSets(p, algebra.DB{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("S = {a} − S should have no stable reading, got %v", none)
	}
}

// TestStableSetsTotalValid: when the valid interpretation is two-valued, the
// stable reading is unique and coincides with it.
func TestStableSetsTotalValid(t *testing.T) {
	db := algebra.DB{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"b", "d"})}
	res, err := core.EvalValid(winCore(), db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.WellDefined() {
		t.Fatal("precondition: acyclic game is well defined")
	}
	models, err := StableSets(winCore(), db, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 {
		t.Fatalf("got %d stable readings, want 1", len(models))
	}
	if !value.Equal(models[0]["win"], res.Set("win")) {
		t.Errorf("stable = %v, valid = %v", models[0]["win"], res.Set("win"))
	}
}

// TestWellFoundedSetsMatchValid: the well-founded reading of an algebra=
// program coincides with core.EvalValid on the corpus (the paper's remark
// that its results transfer between the two semantics).
func TestWellFoundedSetsMatchValid(t *testing.T) {
	dbs := []algebra.DB{
		{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "c"})},
		{"move": pairsOf([2]string{"a", "a"})},
		{"move": pairsOf([2]string{"a", "a"}, [2]string{"a", "b"}, [2]string{"b", "a"})},
	}
	for _, db := range dbs {
		res, err := core.EvalValid(winCore(), db, algebra.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		lo, up, err := WellFoundedSets(winCore(), db)
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(lo["win"], res.Set("win")) {
			t.Errorf("db %v: WFS lower %v vs valid %v", db, lo["win"], res.Set("win"))
		}
		if !value.Equal(up["win"], res.Upper["win"]) {
			t.Errorf("db %v: WFS upper %v vs valid %v", db, up["win"], res.Upper["win"])
		}
	}
}

// TestStableSetsEveryModelExtendsValid: every stable reading contains the
// valid lower bound and stays within the upper bound.
func TestStableSetsEveryModelExtendsValid(t *testing.T) {
	db := algebra.DB{"move": pairsOf(
		[2]string{"a", "b"}, [2]string{"b", "a"}, [2]string{"b", "c"}, [2]string{"c", "d"})}
	res, err := core.EvalValid(winCore(), db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	models, err := StableSets(winCore(), db, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("expected at least one stable reading")
	}
	for _, m := range models {
		if !res.Set("win").Subset(m["win"]) {
			t.Errorf("stable model %v misses valid-certain %v", m["win"], res.Set("win"))
		}
		if !m["win"].Subset(res.Upper["win"]) {
			t.Errorf("stable model %v exceeds valid-possible %v", m["win"], res.Upper["win"])
		}
	}
}

// unnamedDB adds to db relations no win-game rule names: a pair relation
// larger than the game and a scalar one.
func unnamedDB(db algebra.DB) algebra.DB {
	out := db.Clone()
	out["edge"] = pairsOf([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"}, [2]string{"x", "y"})
	out["node"] = value.NewSet(value.String("z"), value.Int(7))
	return out
}

// TestOtherSemUnnamedRelations: the wellfounded and stable readings of an
// algebra= program ground only the relations its translation names.
// Relations it does not name leave every result unchanged, while a relation
// sharing its name with a defined set is still loaded.
func TestOtherSemUnnamedRelations(t *testing.T) {
	db := algebra.DB{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "a"})}
	lo, up, err := WellFoundedSets(winCore(), db)
	if err != nil {
		t.Fatal(err)
	}
	lo2, up2, err := WellFoundedSets(winCore(), unnamedDB(db))
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(lo["win"], lo2["win"]) || !value.Equal(up["win"], up2["win"]) {
		t.Errorf("WFS with unnamed relations = [%v, %v], want [%v, %v]", lo2["win"], up2["win"], lo["win"], up["win"])
	}
	models, err := StableSets(winCore(), db, 16)
	if err != nil {
		t.Fatal(err)
	}
	models2, err := StableSets(winCore(), unnamedDB(db), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || len(models2) != len(models) {
		t.Fatalf("stable readings: %d with unnamed relations, %d without; want 2", len(models2), len(models))
	}
	for i := range models {
		if !value.Equal(models[i]["win"], models2[i]["win"]) {
			t.Errorf("stable reading %d with unnamed relations = %v, want %v", i, models2[i]["win"], models[i]["win"])
		}
	}

	// A database relation named like the defined set is a predicate of the
	// translation: win(c) holds as a fact, so b loses and a wins.
	named := algebra.DB{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "c"}), "win": value.NewSet(value.String("c"))}
	lo, _, err = WellFoundedSets(winCore(), named)
	if err != nil {
		t.Fatal(err)
	}
	if want := value.NewSet(value.String("a"), value.String("c")); !value.Equal(lo["win"], want) {
		t.Errorf("WFS with a relation named win = %v, want %v", lo["win"], want)
	}
}

// TestOtherSemUnnamedBudgetParity: the elements of relations the translation
// does not name still count against the grounding budget, one atom and one
// rule each. With a cap one below the total of grounding every relation the
// request fails with a BudgetError naming that cap; at the total it succeeds.
func TestOtherSemUnnamedBudgetParity(t *testing.T) {
	db := unnamedDB(algebra.DB{"move": pairsOf([2]string{"a", "b"}, [2]string{"b", "a"})})
	prog, err := CoreToDatalog(winCore())
	if err != nil {
		t.Fatal(err)
	}
	prog.AddFacts(DBFacts(db)...)
	g, err := ground.Ground(prog, ground.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	wfs := func(gb ground.Budget) error { _, _, err := WellFoundedSetsBudget(winCore(), db, gb); return err }
	stable := func(gb ground.Budget) error { _, err := StableSetsBudget(winCore(), db, 16, gb); return err }
	for name, run := range map[string]func(ground.Budget) error{"wellfounded": wfs, "stable": stable} {
		for _, cap := range []struct {
			what string
			set  func(n int) ground.Budget
			n    int
		}{
			{"atoms", func(n int) ground.Budget { return ground.Budget{MaxAtoms: n} }, g.NumAtoms()},
			{"rules", func(n int) ground.Budget { return ground.Budget{MaxRules: n} }, len(g.Rules)},
		} {
			var be *ground.BudgetError
			if err := run(cap.set(cap.n - 1)); !errors.As(err, &be) || be.What != cap.what || be.Limit != cap.n-1 {
				t.Errorf("%s: Max%s = %d: err = %v, want a %s BudgetError at %d", name, cap.what, cap.n-1, err, cap.what, cap.n-1)
			}
			if err := run(cap.set(cap.n)); err != nil {
				t.Errorf("%s: Max%s = %d: %v", name, cap.what, cap.n, err)
			}
		}
	}
}

package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/core"
	"algrec/internal/value"
)

// Each shape subtracts a product. The verbs wrap that product: "" and ""
// leave it bare, so the evaluators subtract it as an anti-join
// (value.Set.DiffProduct); "map(" and ", \p -> p)" turn the subtrahend into
// an identity map over the product, which builds the product and subtracts
// it as a set. Both must give the same result.
const (
	bareL, bareR = "", ""
	matL, matR   = "map(", `, \p -> p)`
)

// antiJoinPrograms are algebra= programs with a recursive name inside a
// subtracted product.
var antiJoinPrograms = []string{
	// The win game: the right factor is recursive.
	`def win = map(diff(move, %[1]sproduct(map(move, \x -> x.1), win)%[2]s), \x -> x.1);`,
	// Mutual recursion with the left factor recursive.
	`def bad = map(diff(move, %[1]sproduct(good, map(move, \x -> x.2))%[2]s), \x -> x.2);
def good = diff(map(move, \x -> x.1), bad);`,
	// A minuend mixing pairs and scalars; only pairs can be removed.
	`def c = diff(union(move, map(move, \x -> x.1)), %[1]sproduct(map(move, \x -> x.2), c)%[2]s);`,
}

// antiJoinExprs are the same shapes as plain algebra expressions over a
// database relation s, plus an inflationary fixpoint subtracting a product
// of its own variable.
var antiJoinExprs = []string{
	`diff(move, %[1]sproduct(map(move, \x -> x.1), s)%[2]s)`,
	`diff(union(move, map(move, \x -> x.1)), %[1]sproduct(map(move, \x -> x.2), s)%[2]s)`,
	`ifp(v, union(map(select(move, \x -> x.1 = 0), \x -> x.2), map(diff(move, %[1]sproduct(v, map(move, \x -> x.2))%[2]s), \x -> x.2)))`,
}

// randGame draws a random move graph over n integer nodes, and a random
// subset s of the nodes.
func randGame(r *rand.Rand) algebra.DB {
	n := 1 + r.Intn(7)
	var moves, s []value.Value
	for i := r.Intn(3 * n); i > 0; i-- {
		moves = append(moves, value.Pair(value.Int(int64(r.Intn(n))), value.Int(int64(r.Intn(n)))))
	}
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s = append(s, value.Int(int64(i)))
		}
	}
	return algebra.DB{"move": value.NewSet(moves...), "s": value.NewSet(s...)}
}

func parseProgram(t *testing.T, src string) *core.Program {
	t.Helper()
	sc, err := parse.ParseScript(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return sc.Program
}

// TestAntiJoinEqualsMaterialized: subtracting a product without building it
// gives the same sets as subtracting the built product — in core under the
// valid semantics (certain and possible bounds) and the inflationary one,
// and in algebra.Evaluator, on random move graphs.
func TestAntiJoinEqualsMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for g := 0; g < 60; g++ {
		db := randGame(r)
		for _, shape := range antiJoinPrograms {
			anti := parseProgram(t, fmt.Sprintf(shape, bareL, bareR))
			mat := parseProgram(t, fmt.Sprintf(shape, matL, matR))
			va, errA := core.EvalValid(anti, db, algebra.Budget{})
			vm, errM := core.EvalValid(mat, db, algebra.Budget{})
			if errA != nil || errM != nil {
				t.Fatalf("valid %s on %v: %v / %v", shape, db, errA, errM)
			}
			ia, errA := core.EvalInflationary(anti, db, algebra.Budget{})
			im, errM := core.EvalInflationary(mat, db, algebra.Budget{})
			if errA != nil || errM != nil {
				t.Fatalf("inflationary %s on %v: %v / %v", shape, db, errA, errM)
			}
			for _, d := range anti.Defs {
				if !value.Equal(va.Lower[d.Name], vm.Lower[d.Name]) || !value.Equal(va.Upper[d.Name], vm.Upper[d.Name]) {
					t.Errorf("valid %s on %v: %s = [%v, %v], materialized [%v, %v]", shape, db, d.Name,
						va.Lower[d.Name], va.Upper[d.Name], vm.Lower[d.Name], vm.Upper[d.Name])
				}
				if !value.Equal(ia[d.Name], im[d.Name]) {
					t.Errorf("inflationary %s on %v: %s = %v, materialized %v", shape, db, d.Name, ia[d.Name], im[d.Name])
				}
			}
		}
		for _, shape := range antiJoinExprs {
			anti, err := parse.ParseExpr(fmt.Sprintf(shape, bareL, bareR))
			if err != nil {
				t.Fatal(err)
			}
			mat, err := parse.ParseExpr(fmt.Sprintf(shape, matL, matR))
			if err != nil {
				t.Fatal(err)
			}
			got, errA := algebra.NewEvaluator(db, algebra.Budget{}).Eval(anti)
			want, errM := algebra.NewEvaluator(db, algebra.Budget{}).Eval(mat)
			if errA != nil || errM != nil {
				t.Fatalf("%s on %v: %v / %v", shape, db, errA, errM)
			}
			if !value.Equal(got, want) {
				t.Errorf("%s on %v = %v, materialized %v", shape, db, got, want)
			}
		}
	}
}

// TestAntiJoinBudget: the anti-join keeps the product's MaxSetSize guard,
// with the same error, although it never builds the product.
func TestAntiJoinBudget(t *testing.T) {
	db := algebra.DB{"move": value.NewSet(value.Pair(value.Int(1), value.Int(2))), "s": value.NewSet(value.Int(1), value.Int(2), value.Int(3))}
	b := algebra.Budget{MaxSetSize: 8}
	prod, err := parse.ParseExpr(`product(s, s)`)
	if err != nil {
		t.Fatal(err)
	}
	_, want := algebra.NewEvaluator(db, b).Eval(prod)
	if !errors.Is(want, algebra.ErrBudget) {
		t.Fatalf("product(s, s) under MaxSetSize 8: err = %v, want a budget error", want)
	}
	anti, err := parse.ParseExpr(`diff(move, product(s, s))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := algebra.NewEvaluator(db, b).Eval(anti); err == nil || err.Error() != want.Error() {
		t.Errorf("algebra.Evaluator: err = %v, want %v", err, want)
	}
	p := &core.Program{Defs: []core.Def{{Name: "d", Body: anti}}}
	if _, err := core.EvalValid(p, db, b); err == nil || err.Error() != want.Error() {
		t.Errorf("core: err = %v, want %v", err, want)
	}
}

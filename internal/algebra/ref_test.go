package algebra_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"algrec/internal/algebra"
	"algrec/internal/algebra/ref"
	"algrec/internal/value"
)

// These tests pin the production evaluator — streaming pipelines with
// pushdown and planned hash joins — to the naive reference evaluator
// (internal/algebra/ref), which materializes every product and filters it.

// assertRefEq evaluates e with the production evaluator under budget and
// with the reference evaluator, and demands the same outcome: both fail, or
// both succeed with equal sets.
func assertRefEq(t *testing.T, e algebra.Expr, db algebra.DB, budget algebra.Budget) {
	t.Helper()
	got, errP := algebra.NewEvaluator(db, budget).Eval(e)
	want, errR := ref.Eval(e, db, budget)
	if (errP == nil) != (errR == nil) {
		t.Fatalf("error divergence on %s: production %v, reference %v", e, errP, errR)
	}
	if errP == nil && !value.Equal(got, want) {
		t.Fatalf("result divergence on %s:\n  production: %v\n  reference:  %v", e, got, want)
	}
}

func TestStreamingMatchesMaterialized(t *testing.T) {
	db := algebra.DB{"A": algebra.RangeSet(10), "B": algebra.RangeSet(7), "E": algebra.ChainSet(8)}
	prod := algebra.Product{L: algebra.Rel{Name: "A"}, R: algebra.Rel{Name: "B"}}
	cases := []algebra.Expr{
		algebra.EquiSelect(),
		algebra.TCPipelineExpr(),
		// no usable key: pure streamed cross with a re-checked range test
		algebra.Select{Of: prod, Var: "p", Test: algebra.FCmp{Op: algebra.OpLt, L: algebra.Fld("p", 1), R: algebra.Fld("p", 2)}},
		// σ over a union of a product and a pair relation
		algebra.Select{Of: algebra.Union{L: prod, R: algebra.Rel{Name: "E"}}, Var: "p",
			Test: algebra.FCmp{Op: algebra.OpGe, L: algebra.Fld("p", 2), R: algebra.Fld("p", 1)}},
		// MAP directly over a product
		algebra.Map{Of: prod, Var: "p",
			Out: algebra.FArith{Op: algebra.OpPlus, L: algebra.Fld("p", 1), R: algebra.Fld("p", 2)}},
		// empty side
		algebra.Select{Of: algebra.Product{L: algebra.Rel{Name: "A"}, R: algebra.Lit{Set: value.Set{}}}, Var: "p",
			Test: algebra.FCmp{Op: algebra.OpEq, L: algebra.Fld("p", 1), R: algebra.Fld("p", 2)}},
		// three-leaf nested product with two keys
		algebra.Select{
			Of:  algebra.Product{L: algebra.Product{L: algebra.Rel{Name: "A"}, R: algebra.Rel{Name: "B"}}, R: algebra.Rel{Name: "A"}},
			Var: "p",
			Test: algebra.FAnd{
				L: algebra.FCmp{Op: algebra.OpEq, L: algebra.Fld("p", 1, 1), R: algebra.Fld("p", 2)},
				R: algebra.FCmp{Op: algebra.OpEq, L: algebra.Fld("p", 1, 2), R: algebra.Fld("p", 2)},
			},
		},
	}
	for _, e := range cases {
		assertRefEq(t, e, db, algebra.Budget{})
	}
}

// TestStreamingMatchesMaterializedOnErrors pins the error-deferral policy:
// a pushed conjunct that errors on a leaf element keeps the element, so an
// erroring test fails production exactly where it fails the reference, and
// the error never changes which error-free elements survive.
func TestStreamingMatchesMaterializedOnErrors(t *testing.T) {
	// B mixes integers with a pair, so p.2 % 2 errors on the pair element.
	ints := value.NewSet(value.Int(1), value.Int(2))
	mixed := ints.Insert(value.Pair(value.Int(0), value.Int(0)))
	e := algebra.Select{
		Of:  algebra.Product{L: algebra.Rel{Name: "A"}, R: algebra.Rel{Name: "B"}},
		Var: "p",
		Test: algebra.FAnd{
			L: algebra.Parity(algebra.Fld("p", 2)),
			R: algebra.FCmp{Op: algebra.OpEq, L: algebra.Fld("p", 1), R: algebra.Fld("p", 2)},
		},
	}
	db := algebra.DB{"A": algebra.RangeSet(3), "B": mixed}
	// Without join keys every pair reaches the complete test: both fail.
	assertRefEq(t, e, db, algebra.Budget{NoHashJoin: true})
	if _, err := algebra.NewEvaluator(db, algebra.Budget{NoHashJoin: true}).Eval(e); err == nil {
		t.Fatal("NoHashJoin: the erroring test did not fail production")
	}
	// With the hash join the pair's key matches no integer, so its pairs are
	// never tested: the result is the reference's over the integers alone.
	got, err := algebra.NewEvaluator(db, algebra.Budget{}).Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Eval(e, algebra.DB{"A": algebra.RangeSet(3), "B": ints}, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, want) {
		t.Fatalf("hash join over mixed B = %v, reference over integer B = %v", got, want)
	}
}

// TestStreamingBudgetBoundary pins the one intended divergence class: the
// reference rejects a product whose size exceeds the budget even when the
// output is small; the streaming path bounds only the collected output, so
// it succeeds. Both outcomes are ErrBudget-or-success, which the
// differential oracles classify as a skip.
func TestStreamingBudgetBoundary(t *testing.T) {
	db := algebra.DB{"A": algebra.RangeSet(10), "B": algebra.RangeSet(10)}
	e := algebra.Select{
		Of:   algebra.Product{L: algebra.Rel{Name: "A"}, R: algebra.Rel{Name: "B"}},
		Var:  "p",
		Test: algebra.FCmp{Op: algebra.OpLt, L: algebra.Fld("p", 1), R: algebra.Fld("p", 2)},
	}
	budget := algebra.Budget{MaxSetSize: 50}
	st, errSt := algebra.NewEvaluator(db, budget).Eval(e)
	if errSt != nil || st.Len() != 45 {
		t.Fatalf("streaming: got %d elements, err %v; want 45, nil", st.Len(), errSt)
	}
	if _, errRef := ref.Eval(e, db, budget); !errors.Is(errRef, algebra.ErrBudget) {
		t.Fatalf("reference: got %v, want ErrBudget (100-element product over a 50 cap)", errRef)
	}
	// The streamed output itself is still bounded:
	budget = algebra.Budget{MaxSetSize: 20}
	if _, err := algebra.NewEvaluator(db, budget).Eval(e); !errors.Is(err, algebra.ErrBudget) {
		t.Fatalf("streaming over a 20 cap: got %v, want ErrBudget", err)
	}
}

// TestHashJoinEqualsNaive: the planned hash join — and, under NoHashJoin,
// the streamed cross product — compute exactly the naive σ(×) result on
// random tuple relations.
func TestHashJoinEqualsNaive(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mkRel := func(n int) value.Set {
			elems := make([]value.Value, n)
			for i := range elems {
				elems[i] = value.Pair(value.Int(int64(r.Intn(5))), value.Int(int64(r.Intn(5))))
			}
			return value.NewSet(elems...)
		}
		db := algebra.DB{"l": mkRel(r.Intn(12)), "r": mkRel(r.Intn(12))}
		test := algebra.FAnd{
			L: algebra.FCmp{Op: algebra.OpEq, L: algebra.Fld("p", 1, 2), R: algebra.Fld("p", 2, 1)},
			R: algebra.FCmp{Op: algebra.OpLe, L: algebra.Fld("p", 1, 1), R: algebra.FConst{V: value.Int(3)}},
		}
		e := algebra.Select{Of: algebra.Product{L: algebra.Rel{Name: "l"}, R: algebra.Rel{Name: "r"}}, Var: "p", Test: test}
		want, err := ref.Eval(e, db, algebra.Budget{})
		if err != nil {
			return false
		}
		for _, b := range []algebra.Budget{{}, {NoHashJoin: true}} {
			got, err := algebra.NewEvaluator(db, b).Eval(e)
			if err != nil || !value.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHashJoinFallback: elements whose join key path does not apply go to
// the always-probed loose bucket, so the outcome is the reference's — the
// same error when the complete test fails on them, the same value when an
// earlier conjunct short-circuits past the key.
func TestHashJoinFallback(t *testing.T) {
	key := algebra.FCmp{Op: algebra.OpEq, L: algebra.Fld("p", 1, 2), R: algebra.Fld("p", 2, 1)}
	r := value.NewSet(value.Pair(value.Int(2), value.Int(3)))
	// l holds a non-tuple: the key path .2 cannot apply, and the test
	// errors on the projection.
	errDB := algebra.DB{"l": value.NewSet(value.Int(7)), "r": r}
	e := algebra.Select{Of: algebra.Product{L: algebra.Rel{Name: "l"}, R: algebra.Rel{Name: "r"}}, Var: "p", Test: key}
	if _, err := algebra.NewEvaluator(errDB, algebra.Budget{}).Eval(e); err == nil {
		t.Error("production accepted a projection out of an integer")
	}
	assertRefEq(t, e, errDB, algebra.Budget{})

	// l holds a 1-tuple whose key path .2 is out of range, but the
	// cross-leaf guard p.1.1 < p.2.1 rejects it before the key is tested.
	okDB := algebra.DB{"l": value.NewSet(value.NewTuple(value.Int(5)), value.Pair(value.Int(1), value.Int(2))), "r": r}
	guarded := algebra.Select{Of: e.Of, Var: "p", Test: algebra.FAnd{
		L: algebra.FCmp{Op: algebra.OpLt, L: algebra.Fld("p", 1, 1), R: algebra.Fld("p", 2, 1)},
		R: key,
	}}
	got, err := algebra.NewEvaluator(okDB, algebra.Budget{}).Eval(guarded)
	if err != nil || got.Len() != 1 {
		t.Fatalf("guarded join: got %v, err %v; want one pair", got, err)
	}
	assertRefEq(t, guarded, okDB, algebra.Budget{})
}

func TestHashJoinTCEquivalence(t *testing.T) {
	// End to end: the TC IFP expression evaluates to the reference value,
	// with and without the hash join.
	db := algebra.DB{"move": algebra.ChainSet(20)}
	e := algebra.TCExpr("move")
	want, err := ref.Eval(e, db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 20*21/2 {
		t.Errorf("|tc| = %d, want 210", want.Len())
	}
	for _, b := range []algebra.Budget{{}, {NoHashJoin: true}} {
		got, err := algebra.NewEvaluator(db, b).Eval(e)
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(got, want) {
			t.Errorf("NoHashJoin=%v: production %d elems vs reference %d elems", b.NoHashJoin, got.Len(), want.Len())
		}
	}
}

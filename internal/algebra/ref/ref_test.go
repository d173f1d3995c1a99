package ref

import (
	"errors"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/value"
)

func ints(xs ...int64) value.Set {
	vs := make([]value.Value, len(xs))
	for i, x := range xs {
		vs[i] = value.Int(x)
	}
	return value.NewSet(vs...)
}

func pair(a, b int64) value.Value { return value.Pair(value.Int(a), value.Int(b)) }

func field(v string, idx ...int) algebra.FExpr {
	var e algebra.FExpr = algebra.FVar{Name: v}
	for _, i := range idx {
		e = algebra.FField{Of: e, Idx: i}
	}
	return e
}

// TestOperators checks each operator on hand-computed results.
func TestOperators(t *testing.T) {
	db := algebra.DB{"A": ints(1, 2, 3), "B": ints(2, 3, 4)}
	a, b := algebra.Rel{Name: "A"}, algebra.Rel{Name: "B"}
	cases := []struct {
		name string
		e    algebra.Expr
		want value.Set
	}{
		{"rel", a, ints(1, 2, 3)},
		{"lit", algebra.Lit{Set: ints(7)}, ints(7)},
		{"union", algebra.Union{L: a, R: b}, ints(1, 2, 3, 4)},
		{"diff", algebra.Diff{L: a, R: b}, ints(1)},
		{"product", algebra.Product{L: algebra.Lit{Set: ints(1, 2)}, R: algebra.Lit{Set: ints(5)}},
			value.NewSet(pair(1, 5), pair(2, 5))},
		{"select", algebra.Select{Of: a, Var: "x",
			Test: algebra.FCmp{Op: algebra.OpGe, L: algebra.FVar{Name: "x"}, R: algebra.FConst{V: value.Int(2)}}},
			ints(2, 3)},
		{"map", algebra.Map{Of: a, Var: "x",
			Out: algebra.FArith{Op: algebra.OpTimes, L: algebra.FVar{Name: "x"}, R: algebra.FConst{V: value.Int(10)}}},
			ints(10, 20, 30)},
		{"join", algebra.Select{Of: algebra.Product{L: a, R: b}, Var: "p",
			Test: algebra.FCmp{Op: algebra.OpEq, L: field("p", 1), R: field("p", 2)}},
			value.NewSet(pair(2, 2), pair(3, 3))},
		{"flip", algebra.Flip{E: a}, ints(1, 2, 3)},
	}
	for _, c := range cases {
		got, err := Eval(c.e, db, algebra.Budget{})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !value.Equal(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// tc is the transitive closure of E as an IFP over σ-over-×.
func tc() algebra.Expr {
	step := algebra.Map{
		Of: algebra.Select{
			Of:   algebra.Product{L: algebra.Rel{Name: "t"}, R: algebra.Rel{Name: "E"}},
			Var:  "u",
			Test: algebra.FCmp{Op: algebra.OpEq, L: field("u", 1, 2), R: field("u", 2, 1)},
		},
		Var: "w",
		Out: algebra.FTuple{Elems: []algebra.FExpr{field("w", 1, 1), field("w", 2, 2)}},
	}
	return algebra.IFP{Var: "t", Body: algebra.Union{L: algebra.Rel{Name: "E"}, R: step}}
}

func TestIFP(t *testing.T) {
	db := algebra.DB{"E": value.NewSet(pair(1, 2), pair(2, 3), pair(3, 4))}
	got, err := Eval(tc(), db, algebra.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewSet(pair(1, 2), pair(2, 3), pair(3, 4), pair(1, 3), pair(2, 4), pair(1, 4))
	if !value.Equal(got, want) {
		t.Fatalf("tc = %v, want %v", got, want)
	}
	// The IFP variable shadows a database relation of the same name, and an
	// empty body converges to ∅ in one round.
	db["t"] = ints(99)
	if got, err := Eval(tc(), db, algebra.Budget{}); err != nil || got.Len() != 6 {
		t.Errorf("shadowed tc = %v, %v", got, err)
	}
	empty := algebra.IFP{Var: "x", Body: algebra.Rel{Name: "x"}}
	if got, err := Eval(empty, db, algebra.Budget{}); err != nil || !got.IsEmpty() {
		t.Errorf("IFP_x(x) = %v, %v; want ∅", got, err)
	}
}

func TestBudgets(t *testing.T) {
	// {0} ∪ {x+1 | x ∈ X} never converges.
	count := algebra.IFP{Var: "x", Body: algebra.Union{
		L: algebra.Lit{Set: ints(0)},
		R: algebra.Map{Of: algebra.Rel{Name: "x"}, Var: "v",
			Out: algebra.FArith{Op: algebra.OpPlus, L: algebra.FVar{Name: "v"}, R: algebra.FConst{V: value.Int(1)}}},
	}}
	if _, err := Eval(count, nil, algebra.Budget{MaxIFPIters: 20}); !errors.Is(err, algebra.ErrBudget) {
		t.Errorf("divergent IFP: got %v, want ErrBudget", err)
	}
	if _, err := Eval(count, nil, algebra.Budget{MaxSetSize: 10}); !errors.Is(err, algebra.ErrBudget) {
		t.Errorf("growing IFP over a 10 cap: got %v, want ErrBudget", err)
	}
	db := algebra.DB{"A": ints(1, 2, 3, 4)}
	prod := algebra.Product{L: algebra.Rel{Name: "A"}, R: algebra.Rel{Name: "A"}}
	if _, err := Eval(prod, db, algebra.Budget{MaxSetSize: 15}); !errors.Is(err, algebra.ErrBudget) {
		t.Errorf("16-pair product over a 15 cap: got %v, want ErrBudget", err)
	}
	if got, err := Eval(prod, db, algebra.Budget{MaxSetSize: 16}); err != nil || got.Len() != 16 {
		t.Errorf("16-pair product at a 16 cap: got %d elements, %v", got.Len(), err)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Eval(algebra.Rel{Name: "missing"}, nil, algebra.Budget{}); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := Eval(algebra.Call{Name: "f"}, nil, algebra.Budget{}); err == nil {
		t.Error("call accepted")
	}
	// A test that projects out of an integer fails, not filters.
	bad := algebra.Select{Of: algebra.Lit{Set: ints(1)}, Var: "x",
		Test: algebra.FCmp{Op: algebra.OpEq, L: field("x", 1), R: algebra.FConst{V: value.Int(1)}}}
	if _, err := Eval(bad, nil, algebra.Budget{}); err == nil || errors.Is(err, algebra.ErrBudget) {
		t.Errorf("kind error: got %v, want a non-budget error", err)
	}
}

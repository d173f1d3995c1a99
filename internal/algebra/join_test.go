package algebra

import (
	"testing"

	"algrec/internal/value"
)

// TestEquiJoinKeys pins which conjuncts of a σ-over-product test the
// planner turns into hash-join edges: cross-leaf equalities of pure
// projection chains, in either orientation, alongside pushed single-leaf
// conjuncts — and nothing else.
func TestEquiJoinKeys(t *testing.T) {
	prod := Product{L: Rel{Name: "l"}, R: Rel{Name: "r"}}
	plan := func(test FExpr, noHash bool) *joinPlan {
		t.Helper()
		p, ok := planJoin("p", test, prod, noHash)
		if !ok {
			t.Fatalf("planJoin refused a two-leaf join on %s", test)
		}
		return p
	}
	// p.1.2 = p.2.1
	test := FCmp{Op: OpEq, L: fld("p", 1, 2), R: fld("p", 2, 1)}
	edges := plan(test, false).edges
	if len(edges) != 1 {
		t.Fatalf("edges = %v, want one", edges)
	}
	if e := edges[0]; e.a.leaf != 0 || e.a.path[0] != 2 || e.b.leaf != 1 || e.b.path[0] != 1 {
		t.Errorf("edge = %+v, want leaf 0 path [2] = leaf 1 path [1]", e)
	}
	// swapped sides normalize to the same edge
	swapped := plan(FCmp{Op: OpEq, L: fld("p", 2, 1), R: fld("p", 1, 2)}, false).edges
	if len(swapped) != 1 || swapped[0].a.leaf != 0 || swapped[0].a.path[0] != 2 {
		t.Errorf("swapped sides: edges = %v", swapped)
	}
	// conjunction with an extra single-leaf condition: one edge, one pushed filter
	and := FAnd{L: test, R: FCmp{Op: OpLt, L: fld("p", 1, 1), R: FConst{V: value.Int(5)}}}
	if p := plan(and, false); len(p.edges) != 1 || len(p.leaves[0].filters) != 1 {
		t.Errorf("conjunct extraction: %d edges, %d pushed filters", len(p.edges), len(p.leaves[0].filters))
	}
	// two equi conjuncts
	and2 := FAnd{L: test, R: FCmp{Op: OpEq, L: fld("p", 1, 1), R: fld("p", 2, 2)}}
	if edges := plan(and2, false).edges; len(edges) != 2 {
		t.Errorf("multi-key extraction: edges = %v", edges)
	}
	// NoHashJoin plans no edges
	if edges := plan(test, true).edges; len(edges) != 0 {
		t.Errorf("noHash: edges = %v", edges)
	}
	// no equi-join conjunct
	for _, bad := range []FExpr{
		FCmp{Op: OpNe, L: fld("p", 1, 1), R: fld("p", 2, 1)},
		FCmp{Op: OpEq, L: fld("p", 1, 1), R: fld("p", 1, 2)}, // same side
		FCmp{Op: OpEq, L: fld("p", 1, 1), R: FConst{V: value.Int(3)}},
		FConst{V: value.True},
		FCmp{Op: OpEq, L: FVar{Name: "other"}, R: fld("p", 2, 1)},
	} {
		if edges := plan(bad, false).edges; len(edges) != 0 {
			t.Errorf("false positive on %s: edges = %v", bad, edges)
		}
	}
}

package algebra

import (
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// This file holds the join-key paths. The algebra has no join operator —
// the paper builds joins from ×, σ and MAP — so every join in a translated
// program has the shape
//
//	σ_test(L × R)  with test containing conjuncts  p.1.⟨path⟩ = p.2.⟨path⟩.
//
// A key path is the ⟨path⟩ part: the tuple projections applied to one side
// of a product element to reach its join key. Both equi-joins use them: the
// streaming planner's hash join (streameval.go) through applyPath and
// joinKeyID below, and the ID fixpoint engine's idJoin (idcompile.go) in ID
// space.

// KeyPath is a sequence of 1-based tuple projections applied to one side of
// a product element.
type KeyPath []int

// applyPath projects a value along the path; ok=false on a kind or range
// mismatch.
func applyPath(val value.Value, path KeyPath) (value.Value, bool) {
	for _, idx := range path {
		t, isTuple := val.(value.Tuple)
		if !isTuple || idx < 1 || idx > t.Len() {
			return nil, false
		}
		val = t.At(idx - 1)
	}
	return val, true
}

// joinKeyID conses an element's composite key to its canonical ID. buf is
// scratch reused across calls (InternTuple copies what it keeps).
func joinKeyID(in *intern.Interner, e value.Value, paths []KeyPath, buf *[]intern.ID) (intern.ID, bool) {
	if len(paths) == 1 {
		v, ok := applyPath(e, paths[0])
		if !ok {
			return 0, false
		}
		return in.Intern(v), true
	}
	ids := (*buf)[:0]
	for _, p := range paths {
		v, ok := applyPath(e, p)
		if !ok {
			*buf = ids
			return 0, false
		}
		ids = append(ids, in.Intern(v))
	}
	*buf = ids
	return in.InternTuple(ids...), true
}

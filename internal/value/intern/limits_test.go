package intern_test

import (
	"errors"
	"testing"

	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// mustExhaust runs f and checks that it panics with ErrExhausted.
func mustExhaust(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, intern.ErrExhausted) {
			t.Fatalf("%s: panic value %v, want an error wrapping ErrExhausted", what, r)
		}
	}()
	f()
}

// TestExhaustedIDs pins the ID-counter guard: at the limit the interner
// panics with ErrExhausted instead of issuing a wrapped ID, publishes
// nothing, and keeps serving the values it already holds.
func TestExhaustedIDs(t *testing.T) {
	in := intern.New()
	intern.SetLimits(in, uint32(in.Len())+3, 1<<20)
	a, b := in.InternInt(1<<40), in.InternInt(1<<41)
	pair := in.InternTuple(a, b)
	n := in.Len()
	mustExhaust(t, "scalar past the ID limit", func() { in.Intern(value.String("one too many")) })
	mustExhaust(t, "node past the ID limit", func() { in.InternTuple(b, a) })
	if in.Len() != n {
		t.Fatalf("Len = %d after refused interns, want %d", in.Len(), n)
	}
	if used := intern.ChildLen(in); used != 2 {
		t.Fatalf("refused node consumed child slots: %d in use, want 2", used)
	}
	// Existing values still resolve, through the same shard locks.
	if got := in.InternTuple(a, b); got != pair {
		t.Fatalf("re-intern after exhaustion = %d, want %d", got, pair)
	}
	if got := in.Lookup(pair).String(); got != "(1099511627776, 2199023255552)" {
		t.Fatalf("Lookup(pair) = %s", got)
	}
}

// TestExhaustedChildArena pins the child-offset guard: a node whose
// element IDs would end past the limit is refused without an ID.
func TestExhaustedChildArena(t *testing.T) {
	in := intern.New()
	intern.SetLimits(in, ^uint32(0), 10)
	x, y := in.InternInt(1<<40), in.InternInt(1<<41)
	in.InternTuple(x, y, x, y)
	in.InternTuple(y, x, y, x)
	n := in.Len()
	mustExhaust(t, "node past the child limit", func() { in.InternTuple(x, x, x) })
	if in.Len() != n {
		t.Fatalf("Len = %d after the refused node, want %d", in.Len(), n)
	}
	// Two more slots still fit exactly.
	if id := in.InternTuple(x, x); len(in.Elems(id)) != 2 {
		t.Fatalf("Elems of the last fitting node = %v", in.Elems(id))
	}
	if got := intern.ChildLen(in); got != 10 {
		t.Fatalf("ChildLen = %d, want 10", got)
	}
}

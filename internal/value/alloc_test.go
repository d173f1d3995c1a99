package value

import "testing"

// TestStringCachedNoRealloc is the allocation regression gate for the cached
// canonical encodings: the first String() call may build the string, every
// later call (on the value or any copy of it) must allocate nothing.
func TestStringCachedNoRealloc(t *testing.T) {
	deep := NewSet(
		NewTuple(Int(1), NewSet(String("a"), String("b"))),
		NewTuple(Int(2), NewSet(String("c"))),
	)
	tup := NewTuple(Int(7), deep)
	_ = tup.String() // warm the caches, bottom-up

	if allocs := testing.AllocsPerRun(100, func() { _ = tup.String() }); allocs != 0 {
		t.Errorf("cached Tuple.String allocates %v per call, want 0", allocs)
	}
	cp := tup // a copy shares the cache cell
	if allocs := testing.AllocsPerRun(100, func() { _ = cp.String() }); allocs != 0 {
		t.Errorf("copy's String allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = deep.String() }); allocs != 0 {
		t.Errorf("cached Set.String allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Key(tup) }); allocs != 0 {
		t.Errorf("Key on a warmed value allocates %v per call, want 0", allocs)
	}
}

// TestSetBuilderCanonicalizes checks SetBuilder against NewSet on the same
// element stream, duplicates included, and that building is single-pass (no
// per-Add reallocation beyond the backing array growth).
func TestSetBuilderCanonicalizes(t *testing.T) {
	elems := []Value{Int(3), Int(1), Int(3), String("z"), Int(1), True}
	b := NewSetBuilder(len(elems))
	for _, e := range elems {
		b.Add(e)
	}
	got := b.Set()
	want := NewSet(elems...)
	if !Equal(got, want) {
		t.Fatalf("SetBuilder.Set() = %v, want %v", got, want)
	}

	var zero SetBuilder
	if s := zero.Set(); !s.IsEmpty() {
		t.Errorf("zero builder's Set() = %v, want empty", s)
	}

	defer func() {
		if recover() == nil {
			t.Error("Add after Set did not panic")
		}
	}()
	b.Add(Int(9))
}

// TestSetBuilderAllocs pins the build cost: with capacity preallocated, a
// build is the canonicalization only — at most the element copies already
// counted, never one allocation per Add like repeated Insert.
func TestSetBuilderAllocs(t *testing.T) {
	const n = 64
	allocs := testing.AllocsPerRun(20, func() {
		b := NewSetBuilder(n)
		for i := 0; i < n; i++ {
			b.Add(Int(int64(i % 16)))
		}
		_ = b.Set()
	})
	// One builder, one backing array, one vcache for the result — plus a
	// few words of sort scratch. Repeated Insert would be ~n allocations.
	if allocs > 8 {
		t.Errorf("SetBuilder build of %d elements allocates %v, want <= 8", n, allocs)
	}
}

// TestCompareNoAlloc is the allocation gate for the compares under every
// Set.Has, SortFacts and NewSet: comparing two already-boxed values must not
// allocate, for any kind. Ints above 255 and strings are the cases a boxed
// receiver used to cost one allocation each, tuples three.
func TestCompareNoAlloc(t *testing.T) {
	pairs := []struct {
		name string
		a, b Value
	}{
		{"bool", True, False},
		{"int", Int(100_000), Int(100_001)},
		{"string", String("paris"), String("rome")},
		{"tuple", NewTuple(Int(300), String("x")), NewTuple(Int(300), String("y"))},
		{"set", NewSet(Int(1), String("a")), NewSet(Int(1), String("b"))},
		{"mixed kinds", Int(1000), String("a")},
	}
	for _, p := range pairs {
		if allocs := testing.AllocsPerRun(100, func() { _ = p.a.Compare(p.b) }); allocs != 0 {
			t.Errorf("%s Compare allocates %v per call, want 0", p.name, allocs)
		}
	}
}

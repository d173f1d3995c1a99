package intern

import (
	"fmt"
	"runtime"
	"testing"

	"algrec/internal/value"
)

func TestInternScalars(t *testing.T) {
	in := New()
	cases := []value.Value{
		value.True, value.False,
		value.Int(0), value.Int(7), value.Int(-3), value.Int(1 << 40),
		value.String(""), value.String("a"), value.String("Quoted Sym"),
	}
	ids := make([]ID, len(cases))
	for i, v := range cases {
		ids[i] = in.Intern(v)
		if ids[i] == 0 {
			t.Fatalf("Intern(%v) = 0", v)
		}
		if got := in.Lookup(ids[i]); !value.Equal(got, v) {
			t.Fatalf("Lookup(Intern(%v)) = %v", v, got)
		}
	}
	for i, v := range cases {
		if again := in.Intern(v); again != ids[i] {
			t.Errorf("re-Intern(%v) = %d, first time %d", v, again, ids[i])
		}
		for j := range cases {
			if i != j && ids[i] == ids[j] {
				t.Errorf("Intern(%v) == Intern(%v) = %d", v, cases[j], ids[i])
			}
		}
	}
}

func TestInternIntSmallAndLarge(t *testing.T) {
	in := New()
	if a, b := in.InternInt(5), in.Intern(value.Int(5)); a != b {
		t.Errorf("InternInt(5) = %d but Intern(Int(5)) = %d", a, b)
	}
	big := int64(smallIntRange) + 17
	if a, b := in.InternInt(big), in.Intern(value.Int(big)); a != b {
		t.Errorf("InternInt(%d) = %d but Intern = %d", big, a, b)
	}
	if a, b := in.InternInt(-1), in.InternInt(1); a == b {
		t.Errorf("InternInt(-1) == InternInt(1) = %d", a)
	}
}

func TestInternStructuralConstructorsAgreeWithIntern(t *testing.T) {
	in := New()
	a, b := in.InternInt(1), in.InternInt(2)

	tup := in.InternTuple(a, b)
	if got := in.Intern(value.NewTuple(value.Int(1), value.Int(2))); got != tup {
		t.Errorf("InternTuple = %d, Intern(equivalent tuple) = %d", tup, got)
	}
	if got := in.Lookup(tup).String(); got != "(1, 2)" {
		t.Errorf("Lookup(tuple).String() = %q", got)
	}
	if in.InternTuple(b, a) == tup {
		t.Error("InternTuple is order-insensitive; tuples must not be")
	}

	// InternSet canonicalizes: order and duplicates of the input are ignored.
	s1 := in.InternSet(b, a, a)
	s2 := in.InternSet(a, b)
	if s1 != s2 {
		t.Errorf("InternSet(b,a,a) = %d != InternSet(a,b) = %d", s1, s2)
	}
	if got := in.Intern(value.NewSet(value.Int(2), value.Int(1))); got != s1 {
		t.Errorf("Intern(equivalent set) = %d, InternSet = %d", got, s1)
	}
	if got := in.InternSet(); got != in.Intern(value.EmptySet) {
		t.Errorf("InternSet() = %d, Intern(EmptySet) = %d", got, in.Intern(value.EmptySet))
	}

	if got := in.Elems(tup); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("Elems(tuple) = %v, want [%d %d]", got, a, b)
	}
	if got := in.Elems(a); got != nil {
		t.Errorf("Elems(scalar) = %v, want nil", got)
	}
}

// TestGlobalCachesIDs checks the global interner's O(1) re-intern path: the
// ID lands in the value's cache cell, shared by copies, and the cached-ID
// Compare fast path then certifies equality.
func TestGlobalCachesIDs(t *testing.T) {
	v := value.NewTuple(value.Int(100001), value.String("zz"))
	if value.InternID(v) != 0 {
		t.Fatal("fresh tuple already has an intern ID")
	}
	id := Global().Intern(v)
	if got := value.InternID(v); got != uint32(id) {
		t.Fatalf("cache cell holds %d, Intern returned %d", got, id)
	}
	// A structurally equal but distinct value gets the same ID.
	w := value.NewTuple(value.Int(100001), value.String("zz"))
	if Global().Intern(w) != id {
		t.Error("equal value interned to a different global ID")
	}
	if !value.Equal(v, w) {
		t.Error("values unequal after interning")
	}
}

func TestPrivateInternerDoesNotTouchCache(t *testing.T) {
	in := New()
	v := value.NewTuple(value.Int(424242), value.Int(5))
	in.Intern(v)
	if got := value.InternID(v); got != 0 {
		t.Errorf("private interner wrote ID %d into the value cache", got)
	}
}

func TestArenaGrowth(t *testing.T) {
	in := New()
	n := 3 * chunkSize
	ids := make([]ID, n)
	for i := 0; i < n; i++ {
		ids[i] = in.Intern(value.String(fmt.Sprintf("s%d", i)))
	}
	if in.Len() < n {
		t.Fatalf("Len() = %d after %d distinct interns", in.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		if got := in.Lookup(ids[i]).(value.String); string(got) != fmt.Sprintf("s%d", i) {
			t.Fatalf("Lookup(%d) = %q", ids[i], got)
		}
	}
}

func TestRelation(t *testing.T) {
	r := NewRelation(2)
	if r.Arity() != 2 || r.Len() != 0 {
		t.Fatalf("fresh relation: arity %d len %d", r.Arity(), r.Len())
	}
	rows := [][]ID{{1, 2}, {2, 3}, {1, 2}, {3, 1}}
	wantIdx := []int{0, 1, 0, 2}
	wantAdd := []bool{true, true, false, true}
	for i, row := range rows {
		idx, added := r.Insert(row)
		if idx != wantIdx[i] || added != wantAdd[i] {
			t.Errorf("Insert(%v) = (%d, %v), want (%d, %v)", row, idx, added, wantIdx[i], wantAdd[i])
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", r.Len())
	}
	if got := r.Row(1); got[0] != 2 || got[1] != 3 {
		t.Errorf("Row(1) = %v", got)
	}
	if idx, ok := r.Find([]ID{3, 1}); !ok || idx != 2 {
		t.Errorf("Find({3,1}) = (%d, %v)", idx, ok)
	}
	if r.Has([]ID{9, 9}) {
		t.Error("Has reports a row never inserted")
	}
}

func TestRelationArityZero(t *testing.T) {
	r := NewRelation(0)
	if r.Has(nil) {
		t.Fatal("empty arity-0 relation has the empty row")
	}
	if idx, added := r.Insert(nil); idx != 0 || !added {
		t.Fatalf("first Insert = (%d, %v)", idx, added)
	}
	if idx, added := r.Insert([]ID{}); idx != 0 || added {
		t.Fatalf("second Insert = (%d, %v)", idx, added)
	}
	if !r.Has(nil) || r.Len() != 1 {
		t.Fatalf("after insert: Has %v Len %d", r.Has(nil), r.Len())
	}
	if r.Row(0) != nil {
		t.Errorf("Row(0) of arity-0 relation = %v", r.Row(0))
	}
}

func TestRelationArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert with wrong arity did not panic")
		}
	}()
	NewRelation(2).Insert([]ID{1})
}

// TestShardProbeInsert drives one shard's slot table with synthetic tags:
// three IDs share a tag whose home is the last slot, so their probe path
// wraps around the table end, and a second tag with the same home must walk
// past them without its match function ever seeing their IDs.
func TestShardProbeInsert(t *testing.T) {
	sh := shard{slots: make([]uint64, minSlots)}
	const tag, other = 0xabcd0000 | (minSlots - 1), 0x12340000 | (minSlots - 1)
	never := func(ID) bool { return false }
	wantSlots := []uint32{minSlots - 1, 0, 1}
	for i, want := range wantSlots {
		slot, id := sh.probe(tag, never)
		if id != 0 || slot != want {
			t.Fatalf("probe before insert %d = (%d, %d), want (%d, 0)", i, slot, id, want)
		}
		sh.insert(slot, tag, ID(i+1))
	}
	for i, want := range wantSlots {
		slot, id := sh.probe(tag, func(c ID) bool { return c == ID(i+1) })
		if slot != want || id != ID(i+1) {
			t.Errorf("probe for ID %d = (%d, %d), want (%d, %d)", i+1, slot, id, want, i+1)
		}
	}
	slot, id := sh.probe(other, func(c ID) bool {
		t.Errorf("match called on ID %d whose tag differs", c)
		return true
	})
	if slot != 2 || id != 0 {
		t.Fatalf("probe for a fresh tag = (%d, %d), want (2, 0)", slot, id)
	}
	if sh.used != 3 || len(sh.slots) != minSlots {
		t.Fatalf("used %d of %d slots, want 3 of %d", sh.used, len(sh.slots), minSlots)
	}
}

// TestShardGrowth interns values that all hash to shard 0 until its table
// has doubled at least four times, then re-finds every earlier ID.
func TestShardGrowth(t *testing.T) {
	in := New()
	var vals []int64
	for k := int64(1 << 20); len(vals) < 3*(minSlots<<4)/4+1; k++ {
		if hashInt(k)&shardMask == 0 {
			vals = append(vals, k)
		}
	}
	ids := make([]ID, len(vals))
	for i, k := range vals {
		ids[i] = in.InternInt(k)
	}
	if got := len(in.shards[0].slots); got < minSlots<<4 {
		t.Fatalf("shard 0 has %d slots after %d inserts, want >= %d", got, len(vals), minSlots<<4)
	}
	for i, k := range vals {
		if got := in.InternInt(k); got != ids[i] {
			t.Fatalf("re-intern of %d = %d, first time %d", k, got, ids[i])
		}
		if got := in.Lookup(ids[i]); !value.Equal(got, value.Int(k)) {
			t.Fatalf("Lookup(%d) = %v, want %d", ids[i], got, k)
		}
	}
}

func TestInternEmptyNodes(t *testing.T) {
	in := New()
	tup, set := in.InternTuple(), in.InternSet()
	if tup == set {
		t.Fatalf("empty tuple and empty set share ID %d", tup)
	}
	if got := in.Intern(value.NewTuple()); got != tup {
		t.Errorf("Intern(()) = %d, InternTuple() = %d", got, tup)
	}
	if got := in.Intern(value.EmptySet); got != set {
		t.Errorf("Intern({}) = %d, InternSet() = %d", got, set)
	}
	if k := in.Lookup(tup).Kind(); k != value.KindTuple {
		t.Errorf("Lookup(empty tuple).Kind() = %v", k)
	}
	if k := in.Lookup(set).Kind(); k != value.KindSet {
		t.Errorf("Lookup(empty set).Kind() = %v", k)
	}
	if len(in.Elems(tup)) != 0 || len(in.Elems(set)) != 0 {
		t.Errorf("Elems of empty nodes = %v, %v", in.Elems(tup), in.Elems(set))
	}
	if in.childNext != 0 {
		t.Errorf("empty nodes used %d child slots", in.childNext)
	}
}

// TestInternWideSet interns a set wider than a child chunk, which keeps its
// element IDs in the side table.
func TestInternWideSet(t *testing.T) {
	in := New()
	const n = 5000
	ids := make([]ID, n)
	elems := make([]value.Value, n)
	for i := range ids {
		ids[n-1-i] = in.InternInt(int64(i)) // reversed: InternSet must sort
		elems[i] = value.Int(int64(i))
	}
	set := in.InternSet(ids...)
	if e := in.entryOf(set); e.n <= childChunkSize {
		t.Fatalf("entry holds %d elements, want a wide node (> %d)", e.n, childChunkSize)
	}
	got := in.Elems(set)
	if len(got) != n {
		t.Fatalf("len(Elems) = %d, want %d", len(got), n)
	}
	for i, id := range got {
		if id != ids[n-1-i] {
			t.Fatalf("Elems[%d] = %d, want %d", i, id, ids[n-1-i])
		}
	}
	if again := in.Intern(value.NewSet(elems...)); again != set {
		t.Errorf("Intern(equivalent set) = %d, InternSet = %d", again, set)
	}
	// The side table owns its copy: a caller reusing its slice changes nothing.
	tup := in.InternTuple(ids...)
	first := ids[0]
	ids[0] = ids[1]
	if in.Elems(tup)[0] != first {
		t.Error("wide tuple's elements alias the caller's slice")
	}
	if in.childNext != 0 {
		t.Errorf("wide nodes used %d child-arena slots", in.childNext)
	}
}

// TestInternChunkStraddle places a node whose element IDs would cross a
// child-chunk boundary: it must start the next chunk, round-trip through
// Elems and re-intern to the same ID.
func TestInternChunkStraddle(t *testing.T) {
	in := New()
	filler := make([]ID, childChunkSize-3)
	for i := range filler {
		filler[i] = in.InternInt(int64(i))
	}
	fill := in.InternTuple(filler...)
	row := []ID{in.InternInt(1 << 30), in.InternInt(2), in.InternInt(3), in.InternInt(4), in.InternInt(5)}
	node := in.InternTuple(row...)
	if e := in.entryOf(node); e.off != childChunkSize {
		t.Fatalf("straddling node at child offset %d, want %d", e.off, childChunkSize)
	}
	if got := in.Elems(node); !idsEqual(got, row) {
		t.Fatalf("Elems = %v, want %v", got, row)
	}
	if got := in.InternTuple(row...); got != node {
		t.Fatalf("re-intern = %d, want %d", got, node)
	}
	if got := in.Intern(in.Lookup(node)); got != node {
		t.Fatalf("Intern(Lookup(node)) = %d, want %d", got, node)
	}
	if got := in.Elems(fill); !idsEqual(got, filler) {
		t.Fatal("filler node's elements changed")
	}
	if in.childNext != childChunkSize+uint32(len(row)) {
		t.Errorf("childNext = %d, want %d", in.childNext, childChunkSize+len(row))
	}
}

// TestGateRetainedBytesPerID is a deterministic memory gate: 200k distinct
// (Int >= 2^20, Int) tuples in a private interner retain at most 115 bytes
// of heap per interned ID (92.5 measured on linux/amd64, plus 25%). The
// map-indexed layout with a slice per node retained ~148.
func TestGateRetainedBytesPerID(t *testing.T) {
	const n, ceiling = 200000, 115.0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	in := New()
	n0 := in.Len()
	for k := int64(0); k < n; k++ {
		in.InternTuple(in.InternInt(1<<20+k), in.InternInt(7))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	ids := in.Len() - n0
	perID := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(ids)
	runtime.KeepAlive(in)
	if perID > ceiling {
		t.Fatalf("retained %.1f B per ID over %d IDs, ceiling %.0f", perID, ids, ceiling)
	}
}

// TestGateFirstSightAllocs pins the allocations of consing a fresh
// (Int, Int) tuple from IDs: the boxed Int, and the materialized tuple's
// element slices, cache cell and box. Index and arena growth amortize away.
func TestGateFirstSightAllocs(t *testing.T) {
	in := New()
	k := int64(1 << 30)
	allocs := testing.AllocsPerRun(2000, func() {
		k++
		in.InternTuple(in.InternInt(k), in.InternInt(7))
	})
	if allocs > 5 {
		t.Fatalf("first-sight InternTuple(InternInt(k), InternInt(7)) = %.2f allocs, ceiling 5", allocs)
	}
}

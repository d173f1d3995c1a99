package intern_test

// External test package: these tests drive the interner with randgen's value
// generator, and randgen (via internal/algebra) itself depends on intern —
// an import cycle if they lived in the internal test package.

import (
	"sync"
	"testing"

	"algrec/internal/randgen"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// TestInternProperty is the satellite property test: on randomly generated
// deeply nested values, Lookup∘Intern is the identity and Intern is injective
// (equal IDs iff structurally equal values).
func TestInternProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := intern.New()
		g := randgen.New(seed, randgen.Config{Size: 3})
		vals := make([]value.Value, 60)
		ids := make([]intern.ID, len(vals))
		for i := range vals {
			vals[i] = g.Value(3)
			ids[i] = in.Intern(vals[i])
			if got := in.Lookup(ids[i]); !value.Equal(got, vals[i]) {
				t.Fatalf("seed %d: Lookup∘Intern != id for %v (got %v)", seed, vals[i], got)
			}
		}
		for i := range vals {
			for j := range vals {
				eq := value.Equal(vals[i], vals[j])
				if eq != (ids[i] == ids[j]) {
					t.Fatalf("seed %d: Equal=%v but ids %d vs %d for %v / %v",
						seed, eq, ids[i], ids[j], vals[i], vals[j])
				}
			}
		}
	}
}

// TestInternConcurrent has eight workers intern the same value sequence,
// each in its own order of arrival: random nested values, then enough
// pairs and 100-wide tuples to double every shard's slot table several
// times and fill many child chunks while the others read. Every worker must
// get the same IDs, and each Elems read must see its node fully written.
func TestInternConcurrent(t *testing.T) {
	in := intern.New()
	const workers, pairs, wide, width = 8, 12000, 300, 100
	ids := make([][]intern.ID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := randgen.New(99, randgen.Config{Size: 3}) // same seed: same values
			for i := 0; i < 40; i++ {
				ids[w] = append(ids[w], in.Intern(g.Value(3)))
			}
			for k := 0; k < pairs; k++ {
				// Workers walk the pairs from different starting points, so
				// first sights of a value race between them.
				k := (k + w*pairs/workers) % pairs
				a, b := in.InternInt(1<<20+int64(k)), in.InternInt(int64(k%7))
				p := in.InternTuple(a, b)
				if e := in.Elems(p); len(e) != 2 || e[0] != a || e[1] != b {
					t.Errorf("worker %d: Elems(pair %d) = %v, want [%d %d]", w, k, e, a, b)
					return
				}
			}
			row := make([]intern.ID, width)
			for k := 0; k < wide; k++ {
				for j := range row {
					row[j] = in.InternInt(int64(k*width + j))
				}
				id := in.InternTuple(row...)
				ids[w] = append(ids[w], id)
				if e := in.Elems(id); len(e) != width || e[0] != row[0] || e[width-1] != row[width-1] {
					t.Errorf("worker %d: Elems(wide %d) mismatch", w, k)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(ids[w]) != len(ids[0]) {
			t.Fatalf("worker %d interned %d values, worker 0 %d", w, len(ids[w]), len(ids[0]))
		}
		for i := range ids[0] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d interned value %d to ID %d, worker 0 got %d",
					w, i, ids[w][i], ids[0][i])
			}
		}
	}
	if got := intern.ChildLen(in); got < 8*4096 {
		t.Fatalf("run used %d child slots, want several chunks", got)
	}
}

package diffcheck

import (
	"testing"

	"algrec/internal/randgen"
)

// TestRefOracleSweep is the production ≡ reference property test: a deeper
// seed sweep than TestOraclesCleanSweep over the generator sizes where
// randgen's joinPipeline shapes (multi-leaf products with cross-leaf keys and
// pushable conjuncts) appear. expr-ref compares the streaming evaluator with
// the naive reference; only about one instance in fifteen streams a join,
// and the instances are tiny, so it sweeps 2000 seeds. dlog-stream drives
// the same streaming runtime through core.EvalValid on translated Datalog
// programs, where every rule body is a join, and compares it with the valid
// alternation over the reference evaluator. Any divergence is a planner or executor bug — pruning
// that dropped a row the complete test accepts, or a key encoding that
// separated equal values.
func TestRefOracleSweep(t *testing.T) {
	for _, c := range []struct {
		name  string
		seeds int64
	}{{"expr-ref", 2000}, {"dlog-stream", 150}} {
		o, ok := ByName(c.name)
		if !ok {
			t.Fatalf("oracle %q not registered", c.name)
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < c.seeds; seed++ {
				g := randgen.New(seed, randgen.Config{Size: 1 + int(seed%4)})
				in := Generate(o, g)
				if err := in.Check(); err != nil {
					t.Fatalf("seed %d: %v\ninstance:\n%s", seed, err, in.Render())
				}
			}
		})
	}
}

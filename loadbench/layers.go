package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"algrec/internal/algebra"
	"algrec/internal/ivm"
)

// perLayer lists the per-layer metrics of the traced run (BENCHMARK.json
// "per_layer"), in report order. A layer a workload never calls reports 0.
var perLayer = []string{
	"server.handler_p50_ms", "server.transport_p50_ms", "server.cache_hit_ratio", "server.response_kb", "server.sub_events", "server.sub_coalesced",
	"query.compile_ms", "query.execute_ms", "query.source_kb",
	"ground.ms", "ground.atoms", "ground.rules",
	"semantics.fixpoint_ms",
	"algebra.eval_ms", "algebra.ifp_rounds", "algebra.tuples_scanned", "algebra.tuples_tested",
	"core.eval_ms",
	"translate.wfs_ms",
	"intern.ids_per_op",
	"render.ms",
	"ivm.apply_ms", "ivm.delta_facts", "ivm.incremental", "ivm.applydb_ms", "ivm.reorder_ratio",
	"storage.load_ms", "storage.apply_ms", "storage.materialize_ms", "storage.write_amp", "storage.space_amp", "storage.compactions",
	"trace.overhead", "trace.coverage",
}

// spanMetric maps a per-layer time metric to the span it averages.
var spanMetric = map[string]string{
	"query.compile_ms":       "query.compile",
	"query.execute_ms":       "query.execute",
	"ground.ms":              "ground",
	"semantics.fixpoint_ms":  "semantics.fixpoint",
	"algebra.eval_ms":        "algebra.eval",
	"core.eval_ms":           "core.eval",
	"translate.wfs_ms":       "translate.wfs",
	"render.ms":              "render",
	"ivm.apply_ms":           "ivm.apply",
	"ivm.applydb_ms":         "ivm.applydb",
	"storage.load_ms":        "storage.load",
	"storage.apply_ms":       "storage.apply",
	"storage.materialize_ms": "storage.materialize",
}

// layerReport is the traced run's outcome.
type layerReport struct {
	metrics    map[string]metric
	stats      map[string]*layerStats
	mismatches int
	spansPath  string
	untracedMS float64
	tracedMS   float64
}

func perCall(total float64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return total / float64(calls)
}

// overheadOps is the prefix the overhead passes replay.
const overheadOps = 60

// traceRun replays a prefix of the run's stream from a fresh state, traced:
// that pass gives the per-layer figures. Four more passes over a shorter
// prefix, untraced-traced-traced-untraced so that drift and warm-up cancel,
// give the tracing overhead.
func traceRun(cfg *config, rd *runData) (*layerReport, error) {
	in := replayPrefix(rd)
	tr := newTracer()
	first, err := replayPass(in, cfg.workdir, 0, tr)
	if err != nil {
		return nil, err
	}
	short := in.prefix(overheadOps)
	var walls [2]time.Duration // untraced, traced
	for i, traced := range []bool{false, true, true, false} {
		var t *tracer
		if traced {
			t = newTracer()
		}
		p, err := replayPass(short, cfg.workdir, i+1, t)
		if err != nil {
			return nil, err
		}
		if traced {
			walls[1] += p.wall
		} else {
			walls[0] += p.wall
		}
	}
	rep := &layerReport{metrics: map[string]metric{}, stats: tr.aggregate(), mismatches: first.mismatches,
		untracedMS: ms(walls[0].Nanoseconds()), tracedMS: ms(walls[1].Nanoseconds())}
	put := func(name string, v float64, unit string) { rep.metrics[name] = metric{Value: v, Unit: unit} }

	// Server layer, from the untraced HTTP phase.
	var wall, transport []float64
	hits, queries, bytes := 0, 0, 0
	for _, o := range rd.ops {
		if o.mutation || !o.ok() {
			continue
		}
		queries++
		wall = append(wall, o.reply.wallMS)
		transport = append(transport, o.latMS-o.reply.wallMS)
		bytes += o.size
		if o.reply.cacheHit {
			hits++
		}
	}
	put("server.handler_p50_ms", percentile(wall, 50), "ms")
	put("server.transport_p50_ms", percentile(transport, 50), "ms")
	put("server.cache_hit_ratio", perCall(float64(hits), queries), "ratio")
	put("server.response_kb", perCall(float64(bytes)/1024, queries), "KiB")
	put("server.sub_events", float64(rd.subEvents), "count")
	put("server.sub_coalesced", float64(rd.subCoalesce), "count")

	// Layers, from the first traced pass.
	for name, sp := range spanMetric {
		st := rep.stats[sp]
		if st == nil {
			put(name, 0, "ms")
			continue
		}
		put(name, perCall(ms(st.total.Nanoseconds()), st.calls), "ms")
	}
	r := first.r
	src, nq := 0, 0
	var served float64 // daemon wallMS of the replayed queries
	for _, o := range append(append([]*op(nil), in.queries...), in.reads...) {
		src += len(o.req.Query)
		nq++
		served += o.reply.wallMS
	}
	put("query.source_kb", perCall(float64(src)/1024, nq), "KiB")
	put("ground.atoms", perCall(float64(r.atoms), r.groundN), "count")
	put("ground.rules", perCall(float64(r.rules), r.groundN), "count")
	evals := 0
	if st := rep.stats["algebra.eval"]; st != nil {
		evals = st.calls
	}
	put("algebra.ifp_rounds", perCall(float64(r.col.ifpRounds), evals), "count")
	put("algebra.tuples_scanned", perCall(float64(r.col.scanned), evals), "count")
	put("algebra.tuples_tested", perCall(float64(r.col.test), evals), "count")
	ops := len(in.queries) + len(in.batches)
	put("intern.ids_per_op", perCall(float64(first.internIDs), ops), "ids/op")
	applies := 0
	if st := rep.stats["ivm.apply"]; st != nil {
		applies = st.calls
	}
	put("ivm.delta_facts", perCall(float64(r.deltaFacts), applies), "count")
	incremental := 0.0
	if r.view != nil && r.view.Mode() == "incremental" {
		incremental = 1
	}
	put("ivm.incremental", incremental, "ratio")
	reorder := 0.0
	if rd.w.write {
		if reorder, err = reorderRatio(rd.seed); err != nil {
			return nil, err
		}
	}
	put("ivm.reorder_ratio", reorder, "ratio")
	put("storage.write_amp", first.writeAmp, "ratio")
	put("storage.space_amp", first.spaceAmp, "ratio")
	put("storage.compactions", float64(first.compaction), "count")
	put("trace.overhead", rep.tracedMS/math.Max(rep.untracedMS, 1e-9)-1, "ratio")

	// Coverage: the layer time the replay attributes to the queries (self
	// time of every span below a request root) over the daemon's own wall
	// time for the same queries.
	child := childDurations(tr.spans)
	var attributed time.Duration
	for i, s := range tr.spans {
		if s.parent >= 0 && tr.spans[rootOf(tr.spans, i)].name == "request" {
			attributed += s.end - s.start - child[i]
		}
	}
	put("trace.coverage", ms(attributed.Nanoseconds())/math.Max(served, 1e-9), "ratio")

	rep.spansPath = filepath.Join(filepath.Dir(cfg.workdir), fmt.Sprintf("spans-%s-%d.tsv", rd.w.name, rd.seed))
	if err := tr.writeSpans(rep.spansPath); err != nil {
		return nil, err
	}
	for _, name := range perLayer {
		if _, ok := rep.metrics[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", name)
		}
	}
	return rep, nil
}

// reorderBatches is how many batches reorderRatio maintains each view over.
const reorderBatches = 3

// reorderRatio is the time ivm takes to maintain slowViewRequest's view
// over the run's first batches, divided by the time for the benchmark's
// own view over the same batches.
func reorderRatio(seed int64) (float64, error) {
	g := genGraph(seed)
	db := algebra.DB{"edge": pairSet(g.edges), "move": pairSet(g.moves)}
	src := g.viewSrc
	var took [2]time.Duration
	for i, q := range []request{viewRequest(src), slowViewRequest(src)} {
		p, err := compile(q)
		if err != nil {
			return 0, err
		}
		v, err := ivm.New(p, db, opts)
		if err != nil {
			return 0, err
		}
		ws := newWriteStream(g)
		t0 := time.Now()
		for k := 0; k < reorderBatches; k++ {
			b := ws.next()
			if _, err := v.Apply(toFacts(b.Insert), toFacts(b.Delete)); err != nil {
				return 0, err
			}
		}
		took[i] = time.Since(t0)
	}
	return took[1].Seconds() / took[0].Seconds(), nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func rootOf(spans []span, i int) int {
	for spans[i].parent >= 0 {
		i = spans[i].parent
	}
	return i
}

// printLayers writes the traced run's report.
func printLayers(out io.Writer, rep *layerReport) {
	fmt.Fprintf(out, "traced run: overhead passes %.1f ms untraced, %.1f ms traced; spans in %s\n", rep.untracedMS, rep.tracedMS, rep.spansPath)
	if rep.mismatches > 0 {
		fmt.Fprintf(out, "  note: %d replayed answers differ from the daemon's; the replay no longer mirrors query.Execute\n", rep.mismatches)
	}
	for _, name := range perLayer {
		m := rep.metrics[name]
		fmt.Fprintf(out, "  %-26s %12.4f %s\n", name, m.Value, m.Unit)
	}
}

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/ivm"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/semantics"
	"algrec/internal/storage"
	"algrec/internal/translate"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// The traced run replays the run's own request stream in this process. It
// calls each layer's public functions in the order algrecd calls them and
// records one span per call, so per-layer costs need no instrumentation
// inside the program.

// replayOps bounds the replayed prefix: queries for the read workloads,
// steps (batch + read) for the write workloads.
const replayOps = 150

// span is one traced call.
type span struct {
	name       string
	req        int // request id; spans of one request share it
	parent     int // index of the parent span, -1 for a request root
	start, end time.Duration
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: t.req, parent: t.cur, start: time.Since(t.t0)})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.t0)
	t.cur = t.spans[i].parent
}

// startRequest opens a request's root span under a fresh request id.
func (t *tracer) startRequest(name string) int {
	if t == nil {
		return -1
	}
	t.req++
	t.cur = -1
	return t.begin(name)
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	calls      int
	total, own time.Duration // inclusive and self time
}

// aggregate folds spans by name; a span's self time is its duration minus
// the part its children cover (children never overlap: calls are serial).
func (t *tracer) aggregate() map[string]*layerStats {
	child := childDurations(t.spans)
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		st, ok := out[s.name]
		if !ok {
			st = &layerStats{}
			out[s.name] = st
		}
		st.calls++
		st.total += s.end - s.start
		st.own += s.end - s.start - child[i]
	}
	return out
}

// childDurations sums, per span, the durations of its direct children.
func childDurations(spans []span) []time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	return child
}

// writeSpans writes the spans, one per line, when the run ends.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var b strings.Builder
	for i, s := range t.spans {
		fmt.Fprintf(&b, "%d\t%s\treq=%d\tparent=%d\tstart_us=%d\tend_us=%d\n", i, s.name, s.req, s.parent, s.start.Microseconds(), s.end.Microseconds())
	}
	if _, err := io.WriteString(f, b.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters collects the engines' obsv events during a traced pass.
type counters struct {
	obsv.Nop
	mu                       sync.Mutex
	ifpRounds, scanned, test int
}

func (c *counters) IFP(s obsv.IFPStats) {
	c.mu.Lock()
	c.ifpRounds += s.Rounds
	c.mu.Unlock()
}

func (c *counters) Stream(s obsv.StreamStats) {
	c.mu.Lock()
	c.scanned += s.Scanned
	c.test += s.Tested
	c.mu.Unlock()
}

// replayer holds the in-process state one replay pass evolves: the plan
// cache, the database (memory or a disk store with its materialization
// cache) and, for the write workloads, the maintained view.
type replayer struct {
	tr   *tracer
	col  *counters
	plan map[string]*query.Plan

	db algebra.DB // memory workloads

	st      *storage.DiskStore // write-disk
	mat     map[string]value.Set
	matRows int

	view       *ivm.View
	deltaFacts int
	groundN    int
	atoms      int
	rules      int
}

// opts are the options algrecd evaluates with under its default config.
var opts = query.Options{}

func (r *replayer) planFor(q request) (*query.Plan, error) {
	if p, ok := r.plan[q.key()]; ok {
		return p, nil
	}
	s := r.tr.begin("query.compile")
	p, err := compile(q)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	r.plan[q.key()] = p
	return p, nil
}

// dbFor resolves the database a plan executes against, materializing the
// relations it reads from the disk store as algrecd does.
func (r *replayer) dbFor(p *query.Plan) (algebra.DB, error) {
	if r.st == nil {
		return r.db, nil
	}
	names, all := p.Relations()
	if all {
		infos, err := r.st.Rels()
		if err != nil {
			return nil, err
		}
		names = names[:0]
		for _, ri := range infos {
			names = append(names, ri.Name)
		}
	}
	db := algebra.DB{}
	for _, n := range names {
		if s, ok := r.mat[n]; ok {
			db[n] = s
			continue
		}
		rel, ok, err := r.st.Rel(n)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		sp := r.tr.begin("storage.materialize")
		s, err := storage.MaterializeSet(intern.Global(), rel, 0)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		db[n] = s
		r.cache(n, s)
	}
	return db, nil
}

// cache retains a materialized relation under the row budget, evicting
// others first (the daemon's policy).
func (r *replayer) cache(name string, s value.Set) {
	if s.Len() > matBudgetRows {
		return
	}
	for n, old := range r.mat {
		if r.matRows+s.Len() <= matBudgetRows {
			break
		}
		r.matRows -= old.Len()
		delete(r.mat, n)
	}
	if r.matRows+s.Len() <= matBudgetRows {
		r.mat[name] = s
		r.matRows += s.Len()
	}
}

// query replays one /v1/query request and returns its rendered result.
func (r *replayer) query(q request) ([]byte, error) {
	root := r.tr.startRequest("request")
	defer r.tr.end(root)
	p, err := r.planFor(q)
	if err != nil {
		return nil, err
	}
	db, err := r.dbFor(p)
	if err != nil {
		return nil, err
	}
	x := r.tr.begin("query.execute")
	out, finish, err := r.execute(p, db)
	r.tr.end(x)
	if err != nil {
		return nil, err
	}
	s := r.tr.begin("render")
	finish(out)
	b := encodeResult(renderOutcome(out))
	r.tr.end(s)
	return b, nil
}

// execute mirrors query.Execute for the plans the workloads send, one span
// per layer call. For datalog, the fact-key snapshot of the model is left
// to finish, which the caller times as rendering.
func (r *replayer) execute(p *query.Plan, db algebra.DB) (*query.Outcome, func(*query.Outcome), error) {
	out := &query.Outcome{Language: p.Language, Semantics: p.Semantics, WellDefined: true}
	none := func(*query.Outcome) {}
	switch {
	case p.Language == query.LangAlgebra || p.Language == query.LangIFPAlgebra:
		v, err := r.evalAlgebra(p.Expr, db)
		if err != nil {
			return nil, nil, err
		}
		out.HasValue, out.Value = true, v
		return out, none, nil
	case p.Language == query.LangAlgebraEq && p.Semantics == query.SemValid:
		merged := mergeDB(db, p.Script.DB)
		s := r.tr.begin("core.eval")
		defer r.tr.end(s)
		res, err := core.EvalValid(p.Script.Program, merged, opts.Budget)
		if err != nil {
			return nil, nil, err
		}
		out.WellDefined = res.WellDefined()
		for _, d := range p.Script.Program.Defs {
			if len(d.Params) == 0 {
				out.Defs = append(out.Defs, query.NamedSet{Name: d.Name, Set: res.Set(d.Name), Undef: res.UndefElems(d.Name)})
			}
		}
		for _, q := range p.Script.Queries {
			lo, err := res.QueryLower(q.Expr)
			if err != nil {
				return nil, nil, err
			}
			up, err := res.QueryUpper(q.Expr)
			if err != nil {
				return nil, nil, err
			}
			out.Queries = append(out.Queries, query.QueryAnswer{Src: q.Src, Set: lo, Undef: up.Diff(lo)})
		}
		return out, none, nil
	case p.Language == query.LangAlgebraEq && p.Semantics == query.SemWellFounded:
		merged := mergeDB(db, p.Script.DB)
		s := r.tr.begin("translate.wfs")
		lower, upper, err := translate.WellFoundedSetsBudget(p.Script.Program, merged, opts.Ground)
		r.tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range p.Script.Program.Defs {
			if len(d.Params) > 0 {
				continue
			}
			und := upper[d.Name].Diff(lower[d.Name])
			if !und.IsEmpty() {
				out.WellDefined = false
			}
			out.Defs = append(out.Defs, query.NamedSet{Name: d.Name, Set: lower[d.Name], Undef: und})
		}
		for _, q := range p.Script.Queries {
			qdb := merged.Clone()
			for name, s := range lower {
				qdb[name] = s
			}
			got, err := r.evalAlgebra(q.Expr, qdb)
			if err != nil {
				return nil, nil, err
			}
			out.Queries = append(out.Queries, query.QueryAnswer{Src: q.Src, Set: got})
		}
		return out, none, nil
	case p.Language == query.LangDatalog:
		return r.executeDatalog(p, db, out)
	default:
		return nil, nil, fmt.Errorf("the replay does not mirror %s plans", p.Language)
	}
}

func (r *replayer) evalAlgebra(e algebra.Expr, db algebra.DB) (value.Set, error) {
	s := r.tr.begin("algebra.eval")
	defer r.tr.end(s)
	ev := algebra.NewEvaluator(db, opts.Budget)
	if r.col != nil {
		ev.SetCollector(r.col)
	}
	return ev.Eval(e)
}

func mergeDB(db, over algebra.DB) algebra.DB {
	merged := algebra.DB{}
	for k, v := range db {
		merged[k] = v
	}
	for k, v := range over {
		merged[k] = v
	}
	return merged
}

func (r *replayer) executeDatalog(p *query.Plan, db algebra.DB, out *query.Outcome) (*query.Outcome, func(*query.Outcome), error) {
	prog := p.Program
	if len(db) > 0 {
		merged := &datalog.Program{Rules: append([]datalog.Rule{}, prog.Rules...)}
		merged.AddFacts(query.DBFacts(db)...)
		prog = merged
	}
	out.IDB = prog.IDB()
	s := r.tr.begin("ground")
	g, err := ground.Ground(prog, opts.Ground)
	r.tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	r.groundN++
	r.atoms += g.NumAtoms()
	r.rules += len(g.Rules)
	s = r.tr.begin("semantics.fixpoint")
	in, err := fixpoint(semantics.NewEngine(g), p.Semantics, prog)
	r.tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	finish := func(o *query.Outcome) {
		var m query.DatalogModel
		for _, pred := range prog.Preds() {
			m.Preds = append(m.Preds, query.PredFacts{
				Pred:  pred,
				True:  in.FactKeysWith(pred, semantics.True),
				Undef: in.FactKeysWith(pred, semantics.Undef),
			})
		}
		for _, pf := range m.Preds {
			if len(pf.Undef) > 0 {
				o.WellDefined = false
			}
		}
		o.Datalog = &m
	}
	return out, finish, nil
}

// fixpoint runs the engine entry point the semantics names, as
// semantics.Eval does for the merged program prog. The workloads send
// datalog under two semantics only.
func fixpoint(e *semantics.Engine, sem query.Semantics, prog *datalog.Program) (*semantics.Interp, error) {
	switch sem {
	case query.SemStratified:
		strat, err := datalog.Stratify(prog)
		if err != nil {
			return nil, err
		}
		return e.Stratified(strat)
	case query.SemWellFounded:
		return e.WellFounded(), nil
	default:
		return nil, fmt.Errorf("the replay does not mirror datalog under %s semantics", sem)
	}
}

// toFacts converts a wire batch to datalog facts, as the daemon decodes it.
func toFacts(fs []fact) []datalog.Fact {
	out := make([]datalog.Fact, len(fs))
	for i, f := range fs {
		args := make([]value.Value, len(f.Args))
		for j, a := range f.Args {
			args[j] = value.Int(a)
		}
		out[i] = datalog.Fact{Pred: f.Pred, Args: args}
	}
	return out
}

// rowsOf encodes binary facts as storage rows, as the daemon does.
func rowsOf(fs []datalog.Fact) [][]intern.ID {
	in := intern.Global()
	rows := make([][]intern.ID, len(fs))
	for i, f := range fs {
		id := in.Intern(value.NewTuple(f.Args...))
		rows[i] = append([]intern.ID(nil), in.Elems(id)...)
	}
	return rows
}

// mutate replays one fact batch: the store or registry update, then the
// view's maintenance.
func (r *replayer) mutate(b batch) error {
	root := r.tr.startRequest("step")
	defer r.tr.end(root)
	ins, del := toFacts(b.Insert), toFacts(b.Delete)
	if r.st != nil {
		s := r.tr.begin("storage.apply")
		err := r.st.Apply(storage.Batch{{Rel: "edge", Arity: 2, Delete: rowsOf(del), Insert: rowsOf(ins)}})
		r.tr.end(s)
		if err != nil {
			return err
		}
		if old, ok := r.mat["edge"]; ok {
			r.matRows -= old.Len()
			delete(r.mat, "edge")
		}
	} else {
		s := r.tr.begin("ivm.applydb")
		r.db = ivm.ApplyDB(r.db, ins, del)
		r.tr.end(s)
	}
	s := r.tr.begin("ivm.apply")
	d, err := r.view.Apply(ins, del)
	r.tr.end(s)
	if err != nil {
		return err
	}
	for _, p := range d.Preds {
		r.deltaFacts += len(p.Added) + len(p.Removed) + len(p.UndefAdded) + len(p.UndefRemoved)
	}
	return nil
}

// replayInput is the prefix of the run's stream one pass replays.
type replayInput struct {
	w       workload
	seed    int64
	warm    []request
	queries []*op   // read workloads, in send order
	batches []batch // write workloads
	reads   []*op   // write workloads: the read after each batch
}

func replayPrefix(rd *runData) replayInput {
	in := replayInput{w: rd.w, seed: rd.seed}
	g := genGraph(rd.seed)
	switch rd.w.name {
	case "read-hot":
		in.warm = hotTexts(g.srcs)
	case "read-cold":
		s := newColdStream(rd.seed, "cold-warm")
		for i := 0; i < 8; i++ {
			in.warm = append(in.warm, s.next())
		}
	default:
		in.warm = []request{readRequest(0), readRequest(2)}
	}
	if !rd.w.write {
		qs := append([]*op(nil), rd.ops...)
		sort.SliceStable(qs, func(i, j int) bool { return qs[i].at.Before(qs[j].at) })
		if len(qs) > replayOps {
			qs = qs[:replayOps]
		}
		in.queries = qs
		return in
	}
	ws := newWriteStream(g)
	for i := 0; i+1 < len(rd.ops) && len(in.batches) < replayOps; i += 2 {
		in.batches = append(in.batches, ws.next())
		in.reads = append(in.reads, rd.ops[i+1])
	}
	return in
}

// prefix returns the input cut to its first n operations.
func (in replayInput) prefix(n int) replayInput {
	out := in
	out.queries = in.queries[:min(n, len(in.queries))]
	out.batches = in.batches[:min(n, len(in.batches))]
	out.reads = in.reads[:min(n, len(in.reads))]
	return out
}

// passResult is what one replay pass measured.
type passResult struct {
	wall       time.Duration
	internIDs  int
	mismatches int // replayed answers that differ from the daemon's
	r          *replayer
	writeAmp   float64
	spaceAmp   float64
	compaction int
}

// replayPass replays the prefix once from a fresh state, traced when tr is
// non-nil.
func replayPass(in replayInput, workdir string, pass int, tr *tracer) (*passResult, error) {
	g := genGraph(in.seed)
	script := g.script()
	if in.w.db == "c" {
		script = coldScript(in.seed)
	}
	db, err := loadScript(script)
	if err != nil {
		return nil, err
	}
	r := &replayer{plan: map[string]*query.Plan{}, db: db, mat: map[string]value.Set{}}
	res := &passResult{r: r}
	gen0 := 0
	dir := filepath.Join(workdir, fmt.Sprintf("replay-%d", pass))
	if in.w.disk {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		r.tr = tr
		root := r.tr.startRequest("setup")
		s := r.tr.begin("storage.load")
		st, err := storage.OpenDisk(dir, storage.DiskOptions{})
		if err == nil {
			err = storage.StoreDB(st, intern.Global(), db)
		}
		r.tr.end(s)
		r.tr.end(root)
		if err != nil {
			return nil, err
		}
		r.st, r.db = st, nil
		defer st.Close()
		gen0 = readGeneration(dir)
	}
	if in.w.write {
		full, err := r.dbFor(&query.Plan{Language: query.LangDatalog})
		if err != nil {
			return nil, err
		}
		vp, err := compile(viewRequest(g.viewSrc))
		if err != nil {
			return nil, err
		}
		if r.view, err = ivm.New(vp, full, opts); err != nil {
			return nil, err
		}
	}
	r.tr = nil
	for _, q := range in.warm {
		if _, err := r.query(q); err != nil {
			return nil, fmt.Errorf("replay warm-up %s: %w", q.Template, err)
		}
	}
	r.tr = tr
	if tr != nil {
		r.col = &counters{}
		obsv.SetDefault(r.col)
		defer obsv.SetDefault(nil)
	}
	runtime.GC() // start every pass without the previous pass's garbage
	ids0 := intern.Global().Len()
	wchar0 := procWchar()
	t0 := time.Now()
	check := func(o *op, b []byte) {
		if o.reply.hash != hashBytes(b) {
			res.mismatches++
		}
	}
	for _, o := range in.queries {
		b, err := r.query(o.req)
		if err != nil {
			return nil, err
		}
		check(o, b)
	}
	payload := 0
	for i, b := range in.batches {
		if err := r.mutate(b); err != nil {
			return nil, err
		}
		payload += 16 * (len(b.Insert) + len(b.Delete))
		o := in.reads[i]
		out, err := r.query(o.req)
		if err != nil {
			return nil, err
		}
		check(o, out)
	}
	res.wall = time.Since(t0)
	res.internIDs = intern.Global().Len() - ids0
	if r.st != nil {
		if err := r.st.Close(); err != nil { // waits for a running compaction
			return nil, err
		}
		res.writeAmp = float64(procWchar()-wchar0) / float64(max(payload, 1))
		live := 16 * (graphEdges + moveEdges)
		res.spaceAmp = float64(dirBytes(dir)) / float64(live)
		res.compaction = readGeneration(dir) - gen0
	}
	return res, nil
}

// readGeneration reads a store directory's CURRENT generation.
func readGeneration(dir string) int {
	b, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		return 0
	}
	n, _ := strconv.Atoi(strings.TrimSpace(string(b)))
	return n
}

// procWchar is the bytes this process has passed to write(2) so far.
func procWchar() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return n
		}
	}
	return 0
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

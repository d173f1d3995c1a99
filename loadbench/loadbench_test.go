package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"algrec/internal/algebra"
	"algrec/internal/ivm"
	"algrec/internal/query"
)

// streamBytes renders everything a seed generates — both databases, every
// connection's first requests, the mutation batches, the view — as bytes.
func streamBytes(seed int64) []byte {
	var b bytes.Buffer
	g := genGraph(seed)
	b.WriteString(g.script())
	b.WriteString(coldScript(seed))
	for conn := 0; conn < 2; conn++ {
		hs := newHotStream(seed, conn, g)
		for i := 0; i < 100; i++ {
			b.Write(hs.next().body())
		}
		cs := newColdStream(seed, fmt.Sprintf("cold-%d", conn))
		for i := 0; i < 8; i++ {
			b.Write(cs.next().body())
		}
	}
	ws := newWriteStream(g)
	for i := 0; i < 50; i++ {
		b.Write(ws.next().body())
		b.Write(readRequest(i).body())
	}
	src := g.viewSrc
	b.Write(viewRequest(src).body())
	b.Write(sentinelBatch(src).body())
	return b.Bytes()
}

func TestGenerationIsDeterministic(t *testing.T) {
	a, b := streamBytes(7), streamBytes(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different request streams")
	}
	if bytes.Equal(a, streamBytes(8)) {
		t.Fatal("different seeds generated the same request stream")
	}
}

func TestHotTextsAreFiftyOne(t *testing.T) {
	g := genGraph(3)
	texts := map[string]bool{}
	for _, q := range hotTexts(g.srcs) {
		texts[q.key()] = true
	}
	if len(texts) != 51 {
		t.Fatalf("read-hot has %d distinct texts, want 51", len(texts))
	}
	s := newHotStream(3, 1, g)
	for i := 0; i < 500; i++ {
		q := s.next()
		if !texts[q.key()] {
			t.Fatalf("request %d is not one of the 51 texts: %s", i, q.Query)
		}
	}
}

func TestWriteStreamKeepsEdgeCountLevel(t *testing.T) {
	g := genGraph(4)
	ws := newWriteStream(g)
	for i := 0; i < 200; i++ {
		b := ws.next()
		if len(b.Delete) != batchFacts || len(b.Insert) != batchFacts {
			t.Fatalf("batch %d: %d deletes, %d inserts", i, len(b.Delete), len(b.Insert))
		}
		if len(ws.live) != graphEdges || len(ws.at) != graphEdges {
			t.Fatalf("batch %d: %d live edges, want %d", i, len(ws.live), graphEdges)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {20, 50}, {19, 0}, {0, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := summarize(xs); got.TailP != 99 || got.TailMS != 990 || got.N != 1000 {
		t.Errorf("summarize = %+v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// readHotRun builds a read-hot run whose replies carry the true answers.
func readHotRun(t *testing.T) *runData {
	t.Helper()
	const seed = 5
	g := genGraph(seed)
	db, err := loadScript(g.script())
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("read-hot")
	rd := &runData{w: w, seed: seed, setups: []float64{0.01}, phase: time.Second}
	for _, tmpl := range hotTemplates {
		q := hotRequest(tmpl, g.srcs[0])
		h, err := expectedHash(q, db)
		if err != nil {
			t.Fatal(err)
		}
		rd.ops = append(rd.ops, &op{req: q, status: 200, latMS: 1, reply: queryReply{hash: h}})
	}
	return rd
}

func TestPlantedWrongAnswerRaisesErrorRate(t *testing.T) {
	rd := readHotRun(t)
	if err := verify(rd); err != nil {
		t.Fatal(err)
	}
	if r := computeE2E(rd); r.metrics["error_rate"].Value != 0 {
		t.Fatalf("true answers: error_rate = %v, want 0", r.metrics["error_rate"].Value)
	}
	rd = readHotRun(t)
	rd.ops[2].reply.hash ^= 1 // a wrong answer
	if err := verify(rd); err != nil {
		t.Fatal(err)
	}
	r := computeE2E(rd)
	if got := r.metrics["error_rate"].Value; got != 1.0/float64(len(rd.ops)) {
		t.Fatalf("one planted wrong answer: error_rate = %v, want %v", got, 1.0/float64(len(rd.ops)))
	}
}

func TestParseReply(t *testing.T) {
	res := resultJSON{Value: "{1, 2}"}
	body := []byte(`{"ok":true,"language":"algebra","semantics":"valid","wellDefined":true,"cacheHit":true,"result":` + string(encodeResult(res)) + `,"wallMS":0.42}` + "\n")
	r, ok := parseReply(body)
	if !ok || !r.cacheHit || r.wallMS != 0.42 || r.hash != hashBytes(encodeResult(res)) {
		t.Fatalf("parseReply = %+v, %v", r, ok)
	}
}

// writeRun builds a write-mem run of a few steps whose acknowledgements,
// reads and subscription events are what a correct daemon sends: the
// events come from an in-process view maintained over the same batches.
func writeRun(t *testing.T, steps int) *runData {
	t.Helper()
	const seed = 6
	g := genGraph(seed)
	w, _ := workloadByName("write-mem")
	rd := &runData{w: w, seed: seed, setups: []float64{0.01}, phase: time.Second, base: 1}
	db := algebra.DB{"edge": pairSet(g.edges), "move": pairSet(g.moves)}
	src := g.viewSrc
	plan, err := compile(viewRequest(src))
	if err != nil {
		t.Fatal(err)
	}
	view, err := ivm.New(plan, db, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := view.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	res := renderOutcome(out)
	snap, _ := json.Marshal(map[string]any{"event": "snapshot", "version": rd.base, "result": res})
	sub := &subscription{done: make(chan struct{}), cancel: func() {}}
	close(sub.done)
	sub.events = append(sub.events, subEvent{version: rd.base, line: snap})
	now := time.Now()
	push := func(b batch, version uint64) {
		d, err := view.Apply(toFacts(b.Insert), toFacts(b.Delete))
		if err != nil {
			t.Fatal(err)
		}
		if d.Empty() {
			return
		}
		line, _ := json.Marshal(map[string]any{"event": "delta", "version": version, "preds": d.Preds})
		sub.events = append(sub.events, subEvent{at: now, version: version, line: line})
	}
	ws := newWriteStream(g)
	for step := 0; step < steps; step++ {
		b := ws.next()
		version := rd.base + uint64(step) + 1
		db = ivm.ApplyDB(db, toFacts(b.Insert), toFacts(b.Delete))
		push(b, version)
		q := readRequest(step)
		h, err := expectedHash(q, db)
		if err != nil {
			t.Fatal(err)
		}
		rd.sendAt = append(rd.sendAt, now)
		rd.ops = append(rd.ops,
			&op{mutation: true, step: step, status: 200, latMS: 1, version: version},
			&op{step: step, req: q, status: 200, latMS: 1, reply: queryReply{hash: h}})
	}
	sb := sentinelBatch(src)
	rd.sentinel = &op{mutation: true, status: 200, version: rd.base + uint64(steps) + 1}
	push(sb, rd.sentinel.version)
	rd.sub = sub
	return rd
}

func TestDroppedDeltaRaisesErrorRate(t *testing.T) {
	rd := writeRun(t, 3)
	if err := verify(rd); err != nil {
		t.Fatal(err)
	}
	if r := computeE2E(rd); r.failed != 0 {
		t.Fatalf("faithful stream: %d failures (%v)", r.failed, rd.notes)
	}
	rd = writeRun(t, 3)
	evs := rd.sub.events
	if len(evs) < 3 {
		t.Fatalf("want at least two deltas, got %d events", len(evs))
	}
	rd.sub.events = append(append([]subEvent(nil), evs[:1]...), evs[2:]...) // drop the first delta
	if err := verify(rd); err != nil {
		t.Fatal(err)
	}
	r := computeE2E(rd)
	if r.metrics["error_rate"].Value <= 0 {
		t.Fatalf("dropped delta: error_rate = %v, want > 0", r.metrics["error_rate"].Value)
	}
}

// TestBenchmarkJSONMatchesRunLine pins BENCHMARK.json's metric and workload
// names to what a run reports. (BENCHMARK.json leaves out write-mem, whose
// read latencies are too unsteady to bound; see README.md.)
func TestBenchmarkJSONMatchesRunLine(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, name := range names(spec.Workloads) {
		if _, ok := workloadByName(name); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not run", name)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"end_to_end", names(spec.EndToEnd), endToEnd}, {"per_layer", names(spec.PerLayer), perLayer}} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark reports %v", c.what, c.got, c.want)
		}
	}
}

// TestShortRunsAgainstDaemon builds algrecd and drives a one-second run of
// each workload through the real HTTP path: every answer must verify.
func TestShortRunsAgainstDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs algrecd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "algrecd")
	if out, err := exec.Command("go", "build", "-o", bin, "algrec/cmd/algrecd").CombinedOutput(); err != nil {
		t.Fatalf("build algrecd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		cfg := &config{workload: w.name, seed: 11, seconds: 1, algrecd: bin, workdir: filepath.Join(dir, w.name)}
		rd, err := runLoad(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := verify(rd); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := computeE2E(rd)
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, r.failed, r.attempted, rd.notes)
		}
		for _, name := range endToEnd {
			if v := r.metrics[name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
			}
		}
	}
}

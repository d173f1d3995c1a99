package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
)

// Sizes of the generated databases and requests.
const (
	graphEdges = 3000 // edge pairs in database g
	graphNodes = 2000 // node domain of g's edges
	moveEdges  = 150  // move pairs in database g
	moveNodes  = 100  // node domain of g's moves
	coldEdges  = 300  // edge pairs in database c
	coldNodes  = 200  // node domain of c's edges
	hotSources = 16   // distinct sources K of the parameterized read-hot templates
	litPairs   = 1000 // pairs in each read-cold inline literal
	batchFacts = 32   // edge facts deleted, and as many inserted, per write batch
	// wideDomain bounds read-cold literal values that lie outside the node
	// domain; a run draws a few million of them, so it never exhausts it.
	wideDomain = 1 << 40
	// sentinelNode is a node outside g's domain: the sentinel batch that
	// closes a write run inserts an edge to it, which is certain to change
	// the subscribed view.
	sentinelNode = 9_000_000
)

// rngFor returns a generator seeded by the benchmark seed and a stream name,
// so every stream (database, connection, warm-up) is independent and
// reproducible.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// pair is one binary fact: edge(a, b) or move(a, b).
type pair [2]int64

// genPairs draws n distinct pairs over [0, nodes)², in draw order.
func genPairs(r *rand.Rand, n, nodes int) []pair {
	seen := make(map[pair]bool, n)
	out := make([]pair, 0, n)
	for len(out) < n {
		p := pair{int64(r.Intn(nodes)), int64(r.Intn(nodes))}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// pairLit renders pairs as an algebra set literal, in the given order.
func pairLit(ps []pair) string {
	var b strings.Builder
	b.Grow(len(ps) * 24)
	b.WriteByte('{')
	for i, p := range ps {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", p[0], p[1])
	}
	b.WriteByte('}')
	return b.String()
}

func sortedPairs(ps []pair) []pair {
	s := append([]pair(nil), ps...)
	sort.Slice(s, func(i, j int) bool {
		if s[i][0] != s[j][0] {
			return s[i][0] < s[j][0]
		}
		return s[i][1] < s[j][1]
	})
	return s
}

// graphDB is the shared database g, with the sources its queries use.
type graphDB struct {
	edges, moves []pair
	perm         []int   // the seed's relabeling of edge nodes
	srcs         []int64 // read-hot's sources K, ascending
	viewSrc      int64   // the write workloads' subscription source
}

// Every seed relabels the nodes of one fixed random graph: a different seed
// gives a different database, while every run does the same amount of work
// (the same reach sizes and join fan-outs), so runs on different seeds are
// comparable.

// hub is the candidate with the most outgoing edges (the smallest on ties).
func hub(edges []pair, candidates []int64) int64 {
	deg := map[int64]int{}
	for _, p := range edges {
		deg[p[0]]++
	}
	best := candidates[0]
	for _, c := range candidates {
		if deg[c] > deg[best] {
			best = c
		}
	}
	return best
}

// relabel maps both ends of every pair through perm.
func relabel(ps []pair, perm []int) []pair {
	out := make([]pair, len(ps))
	for i, p := range ps {
		out[i] = pair{int64(perm[p[0]]), int64(perm[p[1]])}
	}
	return out
}

func genGraph(seed int64) graphDB {
	base := rngFor(0, "db-g")
	edges, moves := genPairs(base, graphEdges, graphNodes), genPairs(base, moveEdges, moveNodes)
	pe := rngFor(seed, "relabel-edge").Perm(graphNodes)
	g := graphDB{edges: relabel(edges, pe), moves: relabel(moves, rngFor(seed, "relabel-move").Perm(moveNodes)), perm: pe}
	giant := giantSources(edges)
	g.viewSrc = int64(pe[hub(edges, giant)])
	r := rngFor(0, "sources")
	r.Shuffle(len(giant), func(i, j int) { giant[i], giant[j] = giant[j], giant[i] })
	for _, k := range giant[:hotSources] {
		g.srcs = append(g.srcs, int64(pe[k]))
	}
	sort.Slice(g.srcs, func(i, j int) bool { return g.srcs[i] < g.srcs[j] })
	return g
}

// script renders the database as the algebra= rel script algrecd loads.
func (g graphDB) script() string {
	return "rel edge = " + pairLit(sortedPairs(g.edges)) + ";\nrel move = " + pairLit(sortedPairs(g.moves)) + ";\n"
}

// coldScript is the small database c the read-cold queries run against.
func coldScript(seed int64) string {
	edges := relabel(genPairs(rngFor(0, "db-c"), coldEdges, coldNodes), rngFor(seed, "relabel-c").Perm(coldNodes))
	return "rel edge = " + pairLit(sortedPairs(edges)) + ";\n"
}

// reachSizes maps every node with an outgoing edge to the number of nodes
// it reaches (itself included).
func reachSizes(edges []pair) map[int64]int {
	adj := map[int64][]int64{}
	for _, p := range edges {
		adj[p[0]] = append(adj[p[0]], p[1])
	}
	out := make(map[int64]int, len(adj))
	for s := range adj {
		seen := map[int64]bool{s: true}
		stack := []int64{s}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		out[s] = len(seen)
	}
	return out
}

// giantSources lists, in ascending order, the nodes that reach at least half
// as many nodes as the best-connected node: the sources whose reachability
// spans the graph's giant out-component.
func giantSources(edges []pair) []int64 {
	sizes := reachSizes(edges)
	best := 0
	for _, n := range sizes {
		best = max(best, n)
	}
	var out []int64
	for s, n := range sizes {
		if 2*n >= best {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// request is one /v1/query request as the benchmark sends it.
type request struct {
	Template  string `json:"-"`
	DB        string `json:"db"`
	Language  string `json:"language"`
	Semantics string `json:"semantics"`
	Query     string `json:"query"`
}

// key identifies the request's plan: language, semantics and text.
func (q request) key() string { return q.Language + "\x00" + q.Semantics + "\x00" + q.Query }

func (q request) body() []byte {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// The read-hot templates: six queries over g, three parameterized by a
// source node K.
const (
	winGame = "def win = map(diff(move, product(map(move, \\x -> x.1), win)), \\x -> x.1);\nquery win;"
)

var hotTemplates = []string{"dl_reach", "dl_win", "ifp_reach", "alg_2hop", "eq_win", "eq_win_wfs"}

func hotRequest(tmpl string, k int64) request {
	q := request{Template: tmpl, DB: "g"}
	switch tmpl {
	case "dl_reach":
		q.Language, q.Semantics = "datalog", "stratified"
		q.Query = fmt.Sprintf("reach(X) :- edge(%d, X).\nreach(Y) :- reach(X), edge(X, Y).", k)
	case "dl_win":
		q.Language, q.Semantics = "datalog", "wellfounded"
		q.Query = "win(X) :- move(X, Y), not win(Y)."
	case "ifp_reach":
		q.Language, q.Semantics = "ifp-algebra", "valid"
		q.Query = fmt.Sprintf("ifp(s, union(map(select(edge, \\p -> p.1 = %d), \\p -> p.2), map(select(product(s, edge), \\p -> p.1 = p.2.1), \\p -> p.2.2)))", k)
	case "alg_2hop":
		q.Language, q.Semantics = "algebra", "valid"
		q.Query = fmt.Sprintf("map(select(product(select(edge, \\p -> p.1 = %d), edge), \\p -> p.1.2 = p.2.1), \\p -> p.2.2)", k)
	case "eq_win":
		q.Language, q.Semantics, q.Query = "algebra=", "valid", winGame
	case "eq_win_wfs":
		q.Language, q.Semantics, q.Query = "algebra=", "wellfounded", winGame
	default:
		panic("unknown template " + tmpl)
	}
	return q
}

// hotTexts lists every distinct read-hot request: the warm-up set.
func hotTexts(srcs []int64) []request {
	var out []request
	for _, t := range hotTemplates {
		switch t {
		case "dl_reach", "ifp_reach", "alg_2hop":
			for _, k := range srcs {
				out = append(out, hotRequest(t, k))
			}
		default:
			out = append(out, hotRequest(t, 0))
		}
	}
	return out
}

// deck deals templates in rounds: every round sends each template once, in
// an order drawn from r. The templates' costs differ tenfold, so with
// independent draws the mix, and with it the latency quantiles, would move
// from run to run; dealt in rounds, every run sends them in equal shares.
type deck struct {
	r     *rand.Rand
	names []string
	round []string
	at    int
}

func newDeck(r *rand.Rand, names []string) *deck {
	return &deck{r: r, names: names, round: append([]string(nil), names...), at: len(names)}
}

func (d *deck) deal() string {
	if d.at == len(d.round) {
		d.r.Shuffle(len(d.round), func(i, j int) { d.round[i], d.round[j] = d.round[j], d.round[i] })
		d.at = 0
	}
	d.at++
	return d.round[d.at-1]
}

// hotStream is one read-hot connection's request sequence.
type hotStream struct {
	r    *rand.Rand
	tmpl *deck
	srcs []int64
}

func newHotStream(seed int64, conn int, g graphDB) *hotStream {
	r := rngFor(seed, fmt.Sprintf("hot-%d", conn))
	return &hotStream{r: r, tmpl: newDeck(r, hotTemplates), srcs: g.srcs}
}

func (s *hotStream) next() request {
	t := s.tmpl.deal()
	return hotRequest(t, s.srcs[s.r.Intn(len(s.srcs))])
}

// The read-cold templates: one per language, each carrying a fresh
// ~litPairs-pair literal, against the small database c.
var coldTemplates = []string{"cold_alg", "cold_ifp", "cold_eq", "cold_dl"}

// coldStream is one read-cold connection's request sequence.
type coldStream struct {
	r    *rand.Rand
	tmpl *deck
}

func newColdStream(seed int64, name string) *coldStream {
	r := rngFor(seed, name)
	return &coldStream{r: r, tmpl: newDeck(r, coldTemplates)}
}

// lit draws litPairs pairs (x, y): x from the wide domain, y a node of c
// with probability inDomain, else also from the wide domain.
func (s *coldStream) lit(inDomain float64) []pair {
	ps := make([]pair, litPairs)
	for i := range ps {
		y := s.r.Int63n(wideDomain)
		if s.r.Float64() < inDomain {
			y = int64(s.r.Intn(coldNodes))
		}
		ps[i] = pair{s.r.Int63n(wideDomain), y}
	}
	return ps
}

func (s *coldStream) next() request {
	t := s.tmpl.deal()
	q := request{Template: t, DB: "c"}
	switch t {
	case "cold_alg":
		q.Language, q.Semantics = "algebra", "valid"
		q.Query = "map(select(product(" + pairLit(s.lit(1)) + ", edge), \\p -> p.1.2 = p.2.1), \\p -> (p.1.1, p.2.2))"
	case "cold_ifp":
		// A few seeds land in c's node domain, so the closure runs a few
		// rounds; the rest derive nothing.
		q.Language, q.Semantics = "ifp-algebra", "valid"
		q.Query = "ifp(s, union(" + pairLit(s.lit(0.01)) + ", map(select(product(s, edge), \\p -> p.1.2 = p.2.1), \\p -> (p.1.1, p.2.2))))"
	case "cold_eq":
		q.Language, q.Semantics = "algebra=", "valid"
		q.Query = "rel lit = " + pairLit(s.lit(1)) + ";\ndef hop = map(select(product(lit, edge), \\p -> p.1.2 = p.2.1), \\p -> (p.1.1, p.2.2));\nquery hop;"
	case "cold_dl":
		q.Language, q.Semantics = "datalog", "stratified"
		var b strings.Builder
		for _, p := range s.lit(1) {
			fmt.Fprintf(&b, "lit(%d, %d).\n", p[0], p[1])
		}
		b.WriteString("hop(X, Z) :- lit(X, Y), edge(Y, Z).")
		q.Query = b.String()
	}
	return q
}

// fact is one fact of a mutation batch in the wire format of
// POST /v1/dbs/{name}/facts.
type fact struct {
	Pred string  `json:"pred"`
	Args []int64 `json:"args"`
}

// batch is one mutation batch.
type batch struct {
	Delete []fact `json:"delete"`
	Insert []fact `json:"insert"`
}

func (b batch) body() []byte {
	out, err := json.Marshal(b)
	if err != nil {
		panic(err)
	}
	return out
}

// writeStream generates the write workloads' mutation batches. It keeps the
// live edge set, so each batch deletes live edges and inserts absent ones and
// the relation's size stays level.
type writeStream struct {
	r    *rand.Rand
	perm []int // node labels of the seed
	live []pair
	at   map[pair]int // index of each live edge in live
	keep int64        // edges leaving this node are never deleted
}

// newWriteStream draws its choices from one fixed generator and maps the
// nodes it inserts through the seed's relabeling, so every seed's stream
// is the same stream under other node labels: the view's maintenance cost,
// which depends on how the graph evolves, is then alike on every seed.
func newWriteStream(g graphDB) *writeStream {
	w := &writeStream{r: rngFor(0, "writes"), perm: g.perm, live: append([]pair(nil), g.edges...), at: map[pair]int{}, keep: g.viewSrc}
	for i, p := range w.live {
		w.at[p] = i
	}
	return w
}

func (w *writeStream) remove(p pair) {
	i := w.at[p]
	last := w.live[len(w.live)-1]
	w.live[i] = last
	w.at[last] = i
	w.live = w.live[:len(w.live)-1]
	delete(w.at, p)
}

func (w *writeStream) add(p pair) {
	w.at[p] = len(w.live)
	w.live = append(w.live, p)
}

// next draws the next batch and applies it to the live set.
func (w *writeStream) next() batch {
	var b batch
	del := make([]pair, 0, batchFacts)
	for len(del) < batchFacts {
		p := w.live[w.r.Intn(len(w.live))]
		if p[0] == w.keep {
			continue
		}
		del = append(del, p)
		w.remove(p)
	}
	deleted := map[pair]bool{}
	for _, p := range del {
		deleted[p] = true
		b.Delete = append(b.Delete, fact{Pred: "edge", Args: []int64{p[0], p[1]}})
	}
	for n := 0; n < batchFacts; {
		p := pair{int64(w.perm[w.r.Intn(graphNodes)]), int64(w.perm[w.r.Intn(graphNodes)])}
		if _, ok := w.at[p]; ok || deleted[p] {
			continue
		}
		w.add(p)
		b.Insert = append(b.Insert, fact{Pred: "edge", Args: []int64{p[0], p[1]}})
		n++
	}
	return b
}

// viewProgram is the subscribed view: reachability from a source node, and
// the reached nodes without a move (stratified negation). The second %s is
// the body of the recursive rule.
const viewProgram = "reach(X) :- edge(%d, X).\nreach(Y) :- %s.\nmover(X) :- move(X, Y).\nopen(X) :- reach(X), not mover(X)."

// viewRequest is the write workloads' subscription: reachability from src,
// minus the nodes that have a move (stratified negation). The recursive
// rule lists the edge literal first; see slowViewRequest.
func viewRequest(src int64) request {
	return request{
		Template: "view", DB: "g", Language: "datalog", Semantics: "stratified",
		Query: fmt.Sprintf(viewProgram, src, "edge(X, Y), reach(X)"),
	}
}

// slowViewRequest is the same view with the recursive rule's literals in the
// other order. ivm maintains it about seventy times more slowly; the traced
// run reports the ratio as ivm.reorder_ratio.
func slowViewRequest(src int64) request {
	q := viewRequest(src)
	q.Query = fmt.Sprintf(viewProgram, src, "reach(X), edge(X, Y)")
	return q
}

// sentinelBatch closes a write run: an edge from the view's source to a
// node outside the domain, which the view must report.
func sentinelBatch(src int64) batch {
	return batch{Insert: []fact{{Pred: "edge", Args: []int64{src, sentinelNode}}}}
}

// readRequest is the read a writer sends after the step-th acknowledgement:
// the mutated edge relation on two steps out of three, the unmutated move on
// the third. (A strict alternation would split the reads into two equal
// populations, and a median between them is unstable.)
func readRequest(step int) request {
	rel := "edge"
	if step%3 == 2 {
		rel = "move"
	}
	return request{Template: "read_" + rel, DB: "g", Language: "algebra", Semantics: "valid", Query: rel}
}

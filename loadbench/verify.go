package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/query"
	"algrec/internal/value"
)

// The verifier runs after the timed phase. Each /v1/query answer must equal
// query.Execute on the database version it read; the subscription, folded
// from its snapshot and deltas, must equal a recompute of the view on the
// final database. Wrong answers mark their op; subscription faults count in
// runData.subFailures. Both feed error_rate.

// loadScript parses a rel script into a database.
func loadScript(src string) (algebra.DB, error) {
	s, err := parse.ParseScript(src)
	if err != nil {
		return nil, err
	}
	return s.DB, nil
}

func compile(q request) (*query.Plan, error) {
	lang, err := query.ParseLanguage(q.Language)
	if err != nil {
		return nil, err
	}
	sem, err := query.ParseSemantics(q.Semantics)
	if err != nil {
		return nil, err
	}
	return query.Compile(lang, sem, q.Query)
}

// expected evaluates q on db and renders the result as the daemon does.
func expected(q request, db algebra.DB) (resultJSON, error) {
	plan, err := compile(q)
	if err != nil {
		return resultJSON{}, err
	}
	out, err := query.Execute(plan, db, query.Options{})
	if err != nil {
		return resultJSON{}, err
	}
	return renderOutcome(out), nil
}

func expectedHash(q request, db algebra.DB) (uint64, error) {
	r, err := expected(q, db)
	if err != nil {
		return 0, err
	}
	return hashBytes(encodeResult(r)), nil
}

// checkReply marks o wrong when its answer differs from want.
func checkReply(o *op, want uint64) {
	if o.err == nil && o.status == 200 && o.reply.hash != want {
		o.wrong = true
	}
}

// verify checks every recorded answer of the run.
func verify(rd *runData) error {
	g := genGraph(rd.seed)
	switch rd.w.name {
	case "read-hot":
		db, err := loadScript(g.script())
		if err != nil {
			return err
		}
		want := map[string]uint64{}
		for _, o := range rd.ops {
			h, ok := want[o.req.key()]
			if !ok {
				if h, err = expectedHash(o.req, db); err != nil {
					return fmt.Errorf("verify %s: %w", o.req.Template, err)
				}
				want[o.req.key()] = h
			}
			checkReply(o, h)
		}
		return nil
	case "read-cold":
		db, err := loadScript(coldScript(rd.seed))
		if err != nil {
			return err
		}
		return verifyEach(rd.ops, db)
	default:
		return verifyWrites(rd, g)
	}
}

// verifyEach evaluates every op's own request, on two goroutines.
func verifyEach(ops []*op, db algebra.DB) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += 2 {
				h, err := expectedHash(ops[i].req, db)
				if err != nil {
					errs[w] = fmt.Errorf("verify %s: %w", ops[i].req.Template, err)
					return
				}
				checkReply(ops[i], h)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pairSet is the value set of a binary relation.
func pairSet(ps []pair) value.Set {
	elems := make([]value.Value, len(ps))
	for i, p := range ps {
		elems[i] = value.NewTuple(value.Int(p[0]), value.Int(p[1]))
	}
	return value.NewSet(elems...)
}

// verifyWrites replays the mutation stream on the client's model of g and
// checks each acknowledgement's version, each read against the version it
// followed, and the subscription's folded state.
func verifyWrites(rd *runData, g graphDB) error {
	moves := pairSet(g.moves)
	db := algebra.DB{"edge": pairSet(g.edges), "move": moves}
	snapWant, err := expected(viewRequest(g.viewSrc), db)
	if err != nil {
		return err
	}
	moveWant, err := expectedHash(readRequest(2), db)
	if err != nil {
		return err
	}
	ws := newWriteStream(g)
	for i := 0; i+1 < len(rd.ops); i += 2 {
		m, q := rd.ops[i], rd.ops[i+1]
		step := m.step
		ws.next()
		if m.err == nil && m.status == 200 && m.version != rd.base+uint64(step)+1 {
			m.wrong = true
		}
		if readRequest(step).Query == "move" {
			checkReply(q, moveWant)
			continue
		}
		h, err := expectedHash(readRequest(step), algebra.DB{"edge": pairSet(ws.live), "move": moves})
		if err != nil {
			return err
		}
		checkReply(q, h)
	}
	steps := len(rd.sendAt)
	if s := rd.sentinel; s != nil && s.err == nil && s.status == 200 && s.version != rd.base+uint64(steps)+1 {
		s.wrong = true
	}
	final := append(append([]pair(nil), ws.live...), pair{g.viewSrc, sentinelNode})
	finalWant, err := expected(viewRequest(g.viewSrc), algebra.DB{"edge": pairSet(final), "move": moves})
	if err != nil {
		return err
	}
	fails, notes := checkSubscription(rd.sub.snapshotEvents(), rd.base, rd.base+uint64(steps)+1, snapWant, finalWant)
	rd.subFailures += fails
	rd.notes = append(rd.notes, notes...)
	return nil
}

// eventJSON is one subscription event on the wire.
type eventJSON struct {
	Event   string      `json:"event"`
	Version uint64      `json:"version"`
	Result  *resultJSON `json:"result"`
	Preds   []struct {
		Pred         string   `json:"pred"`
		Added        []string `json:"added"`
		Removed      []string `json:"removed"`
		UndefAdded   []string `json:"undefAdded"`
		UndefRemoved []string `json:"undefRemoved"`
	} `json:"preds"`
}

// viewState is a datalog result as sets of fact keys per predicate, split
// into certain and undefined facts.
type viewState map[string][2]map[string]bool

func stateOf(r *resultJSON) viewState {
	st := viewState{}
	for _, p := range r.Preds {
		st.set(p.Pred, 0, p.True, true)
		st.set(p.Pred, 1, p.Undef, true)
	}
	return st
}

func (st viewState) set(pred string, part int, keys []string, in bool) {
	s, ok := st[pred]
	if !ok {
		s = [2]map[string]bool{{}, {}}
		st[pred] = s
	}
	for _, k := range keys {
		if in {
			s[part][k] = true
		} else {
			delete(s[part], k)
		}
	}
}

// render lists the state canonically, dropping empty predicates.
func (st viewState) render() string {
	var preds []string
	for p, s := range st {
		if len(s[0])+len(s[1]) > 0 {
			preds = append(preds, p)
		}
	}
	sort.Strings(preds)
	var out []string
	for _, p := range preds {
		for part := 0; part < 2; part++ {
			var keys []string
			for k := range st[p][part] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			out = append(out, fmt.Sprintf("%s/%d:%v", p, part, keys))
		}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// checkSubscription folds the events and counts faults: an unreadable or
// out-of-order event, a snapshot that differs from the view on the initial
// database, a stream that never reached the final version, and a folded
// state that differs from the view recomputed on the final database.
func checkSubscription(events []subEvent, base, final uint64, snapWant, finalWant resultJSON) (int, []string) {
	fails := 0
	var notes []string
	fault := func(format string, args ...any) {
		fails++
		notes = append(notes, fmt.Sprintf(format, args...))
	}
	var st viewState
	last := uint64(0)
	for i, ev := range events {
		var e eventJSON
		if err := json.Unmarshal(ev.line, &e); err != nil {
			fault("subscription event %d unreadable: %v", i, err)
			continue
		}
		switch e.Event {
		case "snapshot":
			if e.Result == nil {
				fault("snapshot event %d has no result", i)
				continue
			}
			st = stateOf(e.Result)
			if i == 0 && (e.Version != base || st.render() != stateOf(&snapWant).render()) {
				fault("initial snapshot (version %d) differs from the view on the loaded database", e.Version)
			}
		case "delta":
			if st == nil {
				fault("delta event %d before any snapshot", i)
				continue
			}
			for _, p := range e.Preds {
				st.set(p.Pred, 0, p.Removed, false)
				st.set(p.Pred, 0, p.Added, true)
				st.set(p.Pred, 1, p.UndefRemoved, false)
				st.set(p.Pred, 1, p.UndefAdded, true)
			}
		case "bye":
			continue
		}
		if e.Version <= last && i > 0 {
			fault("event %d out of order: version %d after %d", i, e.Version, last)
		}
		last = e.Version
	}
	if last < final {
		fault("subscription stopped at version %d, before the final version %d", last, final)
	}
	if st == nil || st.render() != stateOf(&finalWant).render() {
		fault("folded subscription state differs from the view recomputed on the final database")
	}
	return fails, notes
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// workload describes one traffic mix; BENCHMARK.json and README.md say why
// each was chosen.
type workload struct {
	name  string
	db    string // the database the mix runs against: "g" or "c"
	disk  bool   // serve from -disk instead of memory
	write bool   // one writer + one subscription instead of two readers
}

var workloads = []workload{
	{name: "read-hot", db: "g"},
	{name: "read-cold", db: "c"},
	{name: "write-mem", db: "g", write: true},
	{name: "write-disk", db: "g", write: true, disk: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	setupRounds = 9 // daemon launches per run; setup_s is their median
	// matBudgetRows is write-disk's -mat-budget: below edge+move (3150
	// rows), so the two alternating reads evict each other.
	matBudgetRows = 3100
	// coldPerSecond is read-cold's request count per second of --seconds,
	// split over its two connections: the phase is count-bounded so that
	// every run interns the same values.
	coldPerSecond = 64
	// coldCap stops read-cold after coldCap × --seconds even if its count
	// is not reached, so a run on a much slower build still ends in time.
	coldCap = 5
	// rssPeriod is how often the daemon's resident set is sampled while
	// timing.
	rssPeriod = 100 * time.Millisecond
	// clientTimeoutMS is the latency a failed request is charged with.
	clientTimeoutMS = 60_000
)

// op is one timed client operation: a query or a mutation batch.
type op struct {
	mutation bool
	conn     int
	step     int       // write step, or the request's index on its connection
	req      request   // queries only
	at       time.Time // send time
	latMS    float64
	status   int
	err      error
	reply    queryReply // queries
	version  uint64     // mutations: acknowledged version
	size     int        // response bytes
	wrong    bool       // set by the verifier
}

func (o *op) ok() bool { return o.err == nil && o.status/100 == 2 && !o.wrong }

// runData is everything one run records.
type runData struct {
	w       workload
	seed    int64
	seconds int

	setups []float64 // seconds per set-up
	ops    []*op     // timed phase, in completion order per connection
	phase  time.Duration
	cpu    time.Duration
	rssMB  float64   // peak resident set (VmHWM)
	rss    []float64 // resident set sampled through the timed phase

	// Write workloads.
	base        uint64        // db version the subscription snapshot carries
	sendAt      []time.Time   // send time of each step's batch
	sub         *subscription // the timed phase's subscription
	sentinel    *op
	subEvents   int64 // from /metrics once the subscription closed
	subCoalesce int64
	compactions int // write-disk: store generations advanced by the run
	subFailures int // set by the verifier
	notes       []string
}

// launch starts algrecd for w and brings it to the state the timed phase
// starts from: database loaded and, for write workloads, the subscription's
// snapshot received. It returns the set-up time.
func launch(cfg *config, w workload, round int, script string, view request) (*daemon, *subscription, float64, error) {
	var extra []string
	dir := ""
	if w.disk {
		dir = filepath.Join(cfg.workdir, fmt.Sprintf("disk-%d", round))
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, 0, err
		}
		extra = append(extra, "-disk", dir, "-mat-budget", strconv.Itoa(matBudgetRows))
	}
	start := time.Now()
	d, err := startDaemon(cfg.algrecd, extra, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newConn()
	defer c.CloseIdleConnections()
	status, body, err := call(context.Background(), c, http.MethodPut, d.base+"/v1/dbs/"+w.db, []byte(script))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("load database %s: HTTP %d: %s", w.db, status, body)
	}
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	var sub *subscription
	if w.write {
		if sub, err = subscribe(d.base, view); err != nil {
			d.stop()
			return nil, nil, 0, err
		}
	}
	return d, sub, time.Since(start).Seconds(), nil
}

// runLoad performs the set-ups, the warm-up and the timed phase of one run,
// then stops the daemon.
func runLoad(cfg *config, w workload) (*runData, error) {
	rd := &runData{w: w, seed: cfg.seed, seconds: cfg.seconds}
	g := genGraph(cfg.seed)
	script := g.script()
	if w.db == "c" {
		script = coldScript(cfg.seed)
	}
	src := g.viewSrc
	view := viewRequest(src)

	var d *daemon
	var sub *subscription
	for round := 0; round < setupRounds; round++ {
		var secs float64
		var err error
		d, sub, secs, err = launch(cfg, w, round, script, view)
		if err != nil {
			return nil, err
		}
		rd.setups = append(rd.setups, secs)
		if round < setupRounds-1 {
			if sub != nil {
				sub.close()
			}
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop()
	if sub != nil {
		defer sub.close()
		rd.sub = sub
		rd.base = sub.snapshotEvents()[0].version
	}
	gen0 := 0
	if w.disk {
		gen0 = storeGeneration(d.diskDir, w.db)
	}

	conns := []*http.Client{newConn(), newConn()}
	if w.write {
		conns = conns[:1] // the subscription is the second connection
	}
	defer func() {
		for _, c := range conns {
			c.CloseIdleConnections()
		}
	}()
	if err := warmUp(cfg, w, d, conns[0], g); err != nil {
		return nil, err
	}

	// Read-cold's requests are made before timing starts: rendering their
	// fresh literals would otherwise share the processors with the daemon.
	var cold [][]request
	if w.name == "read-cold" {
		for i := range conns {
			s := newColdStream(cfg.seed, fmt.Sprintf("cold-%d", i))
			qs := make([]request, cfg.seconds*coldPerSecond/len(conns))
			for k := range qs {
				qs[k] = s.next()
			}
			cold = append(cold, qs)
		}
	}

	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	// Collect this process's garbage less often while timing, so the load
	// generator's own pauses stay out of the latencies it measures.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	stopRSS := d.sampleRSS(rssPeriod)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.seconds) * time.Second)
	switch {
	case w.write:
		rd.ops, rd.sendAt = writeLoop(d.base, conns[0], newWriteStream(g), deadline)
	default:
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c *http.Client) {
				defer wg.Done()
				var ops []*op
				if w.name == "read-hot" {
					s := newHotStream(cfg.seed, i, g)
					ops = queryLoop(d.base, c, i, func(int) request { return s.next() }, func(int) bool { return time.Now().Before(deadline) })
				} else {
					qs := cold[i]
					stop := t0.Add(coldCap * time.Duration(cfg.seconds) * time.Second)
					ops = queryLoop(d.base, c, i, func(k int) request { return qs[k] }, func(k int) bool { return k < len(qs) && time.Now().Before(stop) })
				}
				mu.Lock()
				rd.ops = append(rd.ops, ops...)
				mu.Unlock()
			}(i, c)
		}
		wg.Wait()
	}
	rd.phase = time.Since(t0)
	rd.rss = stopRSS()
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	rd.cpu = cpu1 - cpu0

	if w.write {
		rd.sentinel = mutate(d.base, conns[0], sentinelBatch(src))
		rd.sentinel.step = len(rd.sendAt)
		want := rd.base + uint64(len(rd.sendAt)) + 1
		if !rd.sub.waitVersion(want, 10*time.Second) {
			rd.notes = append(rd.notes, fmt.Sprintf("no subscription event reached the sentinel version %d", want))
		}
		sub.close()
		rd.subEvents, rd.subCoalesce = subCounters(d.base)
	}
	if w.disk {
		rd.compactions = storeGeneration(d.diskDir, w.db) - gen0
	}
	if rd.rssMB, err = d.statusMB("VmHWM"); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	return rd, nil
}

// warmUp sends untimed requests so the timed phase starts from the steady
// state: every read-hot text compiled and cached, the write reads compiled,
// the connections open.
func warmUp(cfg *config, w workload, d *daemon, c *http.Client, g graphDB) error {
	var reqs []request
	switch w.name {
	case "read-hot":
		reqs = hotTexts(g.srcs)
	case "read-cold":
		s := newColdStream(cfg.seed, "cold-warm")
		for i := 0; i < 8; i++ {
			reqs = append(reqs, s.next())
		}
	default:
		reqs = []request{readRequest(0), readRequest(2)}
	}
	for _, q := range reqs {
		o := doQuery(d.base, c, q)
		if !o.ok() {
			return fmt.Errorf("warm-up %s: HTTP %d: %v", q.Template, o.status, o.err)
		}
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// doQuery sends one /v1/query request.
func doQuery(base string, c *http.Client, q request) *op {
	o := &op{req: q, at: time.Now()}
	t := o.at
	status, body, err := call(context.Background(), c, http.MethodPost, base+"/v1/query", q.body())
	o.latMS, o.status, o.err, o.size = msSince(t), status, err, len(body)
	if err == nil && status == http.StatusOK {
		r, ok := parseReply(body)
		if !ok {
			o.err = fmt.Errorf("unparseable reply: %.200s", body)
		}
		o.reply = r
	}
	return o
}

// queryLoop is one closed-loop query connection: it sends the k-th request,
// next(k), as soon as the previous reply arrived, while more(k) holds.
func queryLoop(base string, c *http.Client, conn int, next func(k int) request, more func(k int) bool) []*op {
	var ops []*op
	for k := 0; more(k); k++ {
		o := doQuery(base, c, next(k))
		o.conn, o.step = conn, k
		ops = append(ops, o)
	}
	return ops
}

// mutate sends one fact batch.
func mutate(base string, c *http.Client, b batch) *op {
	o := &op{mutation: true, at: time.Now()}
	t := o.at
	status, body, err := call(context.Background(), c, http.MethodPost, base+"/v1/dbs/g/facts", b.body())
	o.latMS, o.status, o.err, o.size = msSince(t), status, err, len(body)
	if err == nil && status == http.StatusOK {
		var ack struct {
			Version uint64 `json:"version"`
		}
		if jerr := json.Unmarshal(body, &ack); jerr != nil {
			o.err = jerr
		}
		o.version = ack.Version
	}
	return o
}

// writeLoop is the write workloads' closed-loop writer: each step sends a
// batch and, after its acknowledgement, one read.
func writeLoop(base string, c *http.Client, ws *writeStream, deadline time.Time) ([]*op, []time.Time) {
	var ops []*op
	var sendAt []time.Time
	for step := 0; time.Now().Before(deadline); step++ {
		b := ws.next()
		sendAt = append(sendAt, time.Now())
		m := mutate(base, c, b)
		m.step = step
		q := doQuery(base, c, readRequest(step))
		q.step = step
		ops = append(ops, m, q)
	}
	return ops, sendAt
}

// subEvent is one received subscription event.
type subEvent struct {
	at      time.Time
	version uint64
	line    []byte
}

// subscription is a live /v1/subscribe ndjson stream read by a background
// goroutine.
type subscription struct {
	cancel context.CancelFunc
	done   chan struct{} // closed when the reader has exited

	mu      sync.Mutex
	events  []subEvent
	arrived chan struct{} // capacity 1: poked on every event
	err     error
}

var versionKey = []byte(`"version":`)

// eventVersion reads the version field near the start of an event line.
func eventVersion(line []byte) uint64 {
	i := bytes.Index(line, versionKey)
	if i < 0 {
		return 0
	}
	j := i + len(versionKey)
	k := j
	for k < len(line) && line[k] >= '0' && line[k] <= '9' {
		k++
	}
	v, _ := strconv.ParseUint(string(line[j:k]), 10, 64)
	return v
}

// subscribe opens the subscription and waits for its snapshot event.
func subscribe(base string, view request) (*subscription, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/subscribe", bytes.NewReader(view.body()))
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: HTTP %d", resp.StatusCode)
	}
	s := &subscription{cancel: cancel, done: make(chan struct{}), arrived: make(chan struct{}, 1)}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		r := bufio.NewReaderSize(resp.Body, 1<<16)
		for {
			line, err := r.ReadBytes('\n')
			if len(line) > 0 {
				ev := subEvent{at: time.Now(), version: eventVersion(line), line: line}
				s.mu.Lock()
				s.events = append(s.events, ev)
				s.mu.Unlock()
				select {
				case s.arrived <- struct{}{}:
				default:
				}
			}
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					s.mu.Lock()
					s.err = err
					s.mu.Unlock()
				}
				return
			}
		}
	}()
	if !s.waitVersion(1, 30*time.Second) {
		s.close()
		return nil, errors.New("subscribe: no snapshot event within 30s")
	}
	return s, nil
}

// waitVersion waits until an event with version >= v arrived.
func (s *subscription) waitVersion(v uint64, limit time.Duration) bool {
	timeout := time.After(limit)
	for {
		s.mu.Lock()
		n := len(s.events)
		reached := n > 0 && s.events[n-1].version >= v
		s.mu.Unlock()
		if reached {
			return true
		}
		select {
		case <-s.arrived:
		case <-s.done:
			return false
		case <-timeout:
			return false
		}
	}
}

// snapshotEvents returns the events received so far.
func (s *subscription) snapshotEvents() []subEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]subEvent(nil), s.events...)
}

// close ends the stream and waits for the reader to exit.
func (s *subscription) close() {
	s.cancel()
	<-s.done
}

// subCounters reads the daemon's per-subscription counters, which it
// publishes once a subscription has ended.
func subCounters(base string) (events, coalesced int64) {
	c := newConn()
	defer c.CloseIdleConnections()
	for i := 0; i < 500; i++ {
		_, body, err := call(context.Background(), c, http.MethodGet, base+"/metrics", nil)
		var m struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err == nil && json.Unmarshal(body, &m) == nil && m.Counters["server.subscriptions"] > 0 {
			return m.Counters["server.subscription.events"], m.Counters["server.subscription.coalesced"]
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0, 0
}

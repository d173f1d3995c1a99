package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"algrec/internal/algebra"
	"algrec/internal/query"
	"algrec/internal/server"
	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// p12Requests is the number of timed requests per serving measurement, and
// p12Reps the min-of repetitions for the bulk-load round-trips.
const (
	p12Requests = 24
	p12Reps     = 5
)

// minLatency runs f n times and returns the smallest single-call duration —
// the noise-robust statistic the gated serve rows compare (a GC pause or
// scheduler hiccup inflates some calls, never deflates the best one).
func minLatency(n int, f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// p12Script builds the database script PUT to the server: an n-edge integer
// chain in the relation edge.
func p12Script(n int) string {
	var sb strings.Builder
	sb.WriteString("rel edge = {")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i+1)
	}
	sb.WriteString("};\n")
	return sb.String()
}

// p12Query is the served workload: the transitive closure of edge, narrowed
// to the pairs leaving node 0 so evaluation stays quadratic while the
// response body stays linear — the measurement is the storage and serving
// path, not JSON rendering of the full closure.
const p12Query = `select(ifp(s, union(edge, map(select(product(s, edge), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2)))), \p -> p.1 = 0)`

// p12Serve stands up a server (disk-backed when storageDir is non-empty),
// loads the chain database, and times p12Requests identical queries driven
// straight into the handler after one warm-up (which also populates the plan
// cache and, for disk, the materialization cache). It returns the best total
// over p12Reps repetitions plus the result value for the agreement check.
func p12Serve(storageDir, script string) (time.Duration, string, error) {
	cfg := server.Config{}
	if storageDir != "" {
		cfg.Storage = &server.StorageConfig{Dir: storageDir}
	}
	s := server.New(cfg)
	defer s.Close()
	if storageDir != "" {
		if _, err := s.OpenStorage(); err != nil {
			return 0, "", err
		}
	}
	h := s.Handler()

	put := httptest.NewRequest(http.MethodPut, "/v1/dbs/g", strings.NewReader(script))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, put)
	if rec.Code != http.StatusOK {
		return 0, "", fmt.Errorf("expt: P12 db load failed with status %d: %s", rec.Code, rec.Body.String())
	}

	body, err := json.Marshal(map[string]any{
		"db": "g", "language": "ifp-algebra", "semantics": "valid", "query": p12Query,
	})
	if err != nil {
		return 0, "", err
	}
	post := func() (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("expt: P12 query failed with status %d: %s", rec.Code, rec.Body.String())
		}
		return rec, nil
	}
	rec, err = post()
	if err != nil {
		return 0, "", err
	}
	var out struct {
		Result struct {
			Value string `json:"value"`
		} `json:"result"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		return 0, "", err
	}
	settle()
	d, err := minLatency(p12Requests, func() error {
		_, err := post()
		return err
	})
	if err != nil {
		return 0, "", err
	}
	return d, out.Result.Value, nil
}

// RunP12 measures what the pluggable storage engine costs the serving path
// and what the disk backend costs over the memory backend. Three rows per
// chain size n:
//
//   - storageMemServe: the P7-style service workload (full HTTP surface,
//     plan-cache warm) against the copy-on-write memory registry, compared
//     with evaluating the same compiled plan directly over the same
//     database. The gated floor (benchcheck P12:storageMemServe:0.95)
//     asserts the registry indirection, snapshot machinery, and response
//     encoding cost at most 5% over raw evaluation.
//   - storageDiskServe: the same workload served from the disk backend with
//     a warm materialization cache — the steady-state cost of keeping the
//     database on disk (advisory).
//   - storageBulkLoad: StoreDB+LoadDB round-trip of the chain database
//     through the memory backend versus the disk backend — the write-path
//     and recovery-read cost of durability (advisory).
func RunP12(sizes []int) (*Table, error) {
	t := &Table{ID: "P12", Title: "pluggable storage: serving and bulk load, memory vs disk backend (performance)", OK: true,
		Header: []string{"workload", "n", "base", "with storage", "speedup", "agree"}}
	t.Notes = append(t.Notes,
		"serve rows: base = direct query.Execute over the materialized database, with storage = the full service path (HTTP handler, registry, plan cache warm)",
		"bulk row: base = memory-backend StoreDB+LoadDB round-trip, with storage = the same round-trip through the disk backend (fsync off)",
		fmt.Sprintf("serve rows report best-of-%d single-request latency; bulk rows best-of-%d round-trips; all three paths must produce the same result value", p12Requests, p12Reps))
	for _, n := range sizes {
		script := p12Script(n)
		db := FactsDB("edge", ChainEdges("edge", n))
		// Warm the interner the way database registration does, so the
		// direct baseline evaluates over the same hash-consed vocabulary as
		// the served paths.
		for _, set := range db {
			intern.Global().Intern(set)
		}
		plan, err := query.Compile(query.LangIFPAlgebra, query.SemValid, p12Query)
		if err != nil {
			return nil, err
		}
		var out *query.Outcome
		settle()
		dDirect, err := minLatency(p12Requests, func() error {
			var eerr error
			out, eerr = query.Execute(plan, db, query.Options{})
			return eerr
		})
		if err != nil {
			return nil, err
		}
		directVal := ""
		if out != nil && out.HasValue {
			directVal = out.Value.String()
		}

		dMem, memVal, err := p12Serve("", script)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp("", "algrec-p12-*")
		if err != nil {
			return nil, err
		}
		dDisk, diskVal, err := p12Serve(dir, script)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		agree := directVal != "" && memVal == directVal && diskVal == directVal
		if !agree {
			t.OK = false
		}
		t.Add(fmt.Sprintf("storageMemServe(%d)", n), n, dDirect, dMem, speedup(dDirect, dMem), agree)
		t.Add(fmt.Sprintf("storageDiskServe(%d)", n), n, dDirect, dDisk, speedup(dDirect, dDisk), agree)

		dMemLoad, dDiskLoad, loadAgree, err := p12BulkLoad(db)
		if err != nil {
			return nil, err
		}
		if !loadAgree {
			t.OK = false
		}
		t.Add(fmt.Sprintf("storageBulkLoad(%d)", n), n, dMemLoad, dDiskLoad, speedup(dMemLoad, dDiskLoad), loadAgree)
	}
	return t, nil
}

// p12BulkLoad times a StoreDB+LoadDB round-trip of db through a fresh memory
// backend and a fresh disk backend, checking both loads render back to the
// original database.
func p12BulkLoad(db algebra.DB) (time.Duration, time.Duration, bool, error) {
	in := intern.Global()
	roundtrip := func(open func() (storage.Store, func(), error)) (time.Duration, string, error) {
		var rendered string
		var rerr error
		settle()
		d := minTimed(p12Reps, func() {
			st, done, err := open()
			if err != nil {
				rerr = err
				return
			}
			defer done()
			if err := storage.StoreDB(st, in, db); err != nil {
				rerr = err
				return
			}
			loaded, err := storage.LoadDB(st, in, 1)
			if err != nil {
				rerr = err
				return
			}
			rendered = renderDBSets(loaded)
		})
		return d, rendered, rerr
	}
	dMem, memR, err := roundtrip(func() (storage.Store, func(), error) {
		return storage.NewMem(in), func() {}, nil
	})
	if err != nil {
		return 0, 0, false, err
	}
	dDisk, diskR, err := roundtrip(func() (storage.Store, func(), error) {
		dir, err := os.MkdirTemp("", "algrec-p12-load-*")
		if err != nil {
			return nil, nil, err
		}
		st, err := storage.OpenDisk(dir, storage.DiskOptions{Interner: in})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return st, func() { st.Close(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return 0, 0, false, err
	}
	want := renderDBSets(db)
	return dMem, dDisk, memR == want && diskR == want && want != "", nil
}

// renderDBSets renders a database to a canonical string, for round-trip
// agreement checks.
func renderDBSets(db map[string]value.Set) string {
	names := make([]string, 0, len(db))
	for n := range db {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s = %s\n", n, db[n].String())
	}
	return sb.String()
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics the run line reports on every
// workload (BENCHMARK.json "end_to_end"), in report order.
var endToEnd = []string{"setup_s", "ops_per_s", "query_p50_ms", "query_tail_ms", "server_cpu_ms_per_op", "server_rss_p50_mb"}

// e2eReport computes every end-to-end figure of a verified run: the
// BENCHMARK.json metrics plus the write-only and error figures, which the
// report prints but the run line cannot carry on every workload.
type e2eReport struct {
	attempted, failed int
	metrics           map[string]metric
	queries           timing
	mutations, lags   timing
	order             []string
}

func (r *e2eReport) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func latency(o *op) float64 {
	if o.ok() {
		return o.latMS
	}
	return clientTimeoutMS
}

func computeE2E(rd *runData) *e2eReport {
	r := &e2eReport{metrics: map[string]metric{}}
	var qms, mms, lags []float64
	good := 0
	for _, o := range rd.ops {
		r.attempted++
		if o.ok() {
			good++
		} else {
			r.failed++
		}
		if o.mutation {
			mms = append(mms, latency(o))
		} else {
			qms = append(qms, latency(o))
		}
	}
	if rd.w.write {
		// The sentinel batch and the subscription's consistency are one
		// operation each.
		r.attempted += 2
		if rd.sentinel == nil || !rd.sentinel.ok() {
			r.failed++
		}
		if rd.subFailures > 0 {
			r.failed++
		}
		for _, ev := range rd.sub.snapshotEvents() {
			k := int(ev.version) - int(rd.base) - 1
			if k >= 0 && k < len(rd.sendAt) {
				lags = append(lags, float64(ev.at.Sub(rd.sendAt[k]).Nanoseconds())/1e6)
			}
		}
	}
	r.queries, r.mutations, r.lags = summarize(qms), summarize(mms), summarize(lags)
	r.put("setup_s", median(rd.setups), "s")
	r.put("ops_per_s", float64(good)/rd.phase.Seconds(), "1/s")
	r.put("query_p50_ms", r.queries.P50, "ms")
	r.put("query_tail_ms", r.queries.TailMS, "ms")
	r.put("server_cpu_ms_per_op", float64(rd.cpu.Nanoseconds())/1e6/math.Max(float64(good), 1), "ms")
	r.put("server_rss_p50_mb", median(rd.rss), "MiB")
	r.put("server_rss_mb", rd.rssMB, "MiB")
	if rd.w.write {
		r.put("mutation_p50_ms", r.mutations.P50, "ms")
		r.put("mutation_tail_ms", r.mutations.TailMS, "ms")
		r.put("delta_lag_p50_ms", r.lags.P50, "ms")
		r.put("delta_lag_tail_ms", r.lags.TailMS, "ms")
	}
	r.put("error_rate", float64(r.failed)/float64(r.attempted), "ratio")
	return r
}

// printReport writes the human-readable end-to-end report.
func printReport(out io.Writer, rd *runData, r *e2eReport) {
	fmt.Fprintf(out, "loadbench %s seed=%d: %d ops in %.2fs, %d failed\n", rd.w.name, rd.seed, r.attempted, rd.phase.Seconds(), r.failed)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(out, "  %-22s %12.4f %s\n", name, m.Value, m.Unit)
	}
	tail := func(what string, t timing) {
		fmt.Fprintf(out, "  %-22s n=%d p50=%.3f ms p%g=%.3f ms (highest percentile with >=10 samples beyond it)\n", what, t.N, t.P50, t.TailP, t.TailMS)
	}
	tail("queries", r.queries)
	if rd.w.write {
		tail("mutations", r.mutations)
		tail("delta lags", r.lags)
		fmt.Fprintf(out, "  %-22s events=%d coalesced=%d\n", "subscription", rd.subEvents, rd.subCoalesce)
	}
	if rd.w.disk {
		fmt.Fprintf(out, "  %-22s %d\n", "store compactions", rd.compactions)
	}
	for _, n := range rd.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
}

// printResult writes the run line: exactly the named metrics.
func printResult(out io.Writer, correct bool, attempted, failed int, all map[string]metric, names []string) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = m
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// Command loadbench is the end-to-end benchmark of the algrecd query
// service. One run starts the real algrecd binary, loads seeded data into
// it, drives it over loopback HTTP from this single process with at most two
// connections, checks every answer after the timed phase, and prints the
// run's metrics; the last line of standard output is one JSON object.
//
// Usage (from the repository root, through the wrapper that builds both
// binaries):
//
//	bash loadbench/run.sh --workload read-hot --seed 1 --seconds 16 --trace 0
//	bash loadbench/run.sh --steady 5 --seconds 16 [--workload write-disk]
//
// --trace 1 adds the traced run: the same seeded request stream replayed
// in-process, one span per call into each layer, reported as per-layer
// metrics. --steady N runs every workload (or the one named) N times with
// seeds 1..N and prints each metric's median, quartiles and range.
// See loadbench/README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config holds the command-line settings of one run.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	algrecd  string // the daemon binary
	workdir  string // scratch directory for disk stores
	steady   int
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: read-hot, read-cold, write-mem or write-disk")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and request streams")
	fs.IntVar(&cfg.seconds, "seconds", 16, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from the traced run")
	fs.StringVar(&cfg.algrecd, "algrecd", "", "algrecd binary to benchmark")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/loadbench/work", "scratch directory for disk stores")
	fs.IntVar(&cfg.steady, "steady", 0, "steadiness mode: runs per workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = *trace == 1
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if cfg.steady > 0 {
		return steady(cfg, args)
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.algrecd == "" {
		return errors.New("--algrecd is required")
	}
	abs, err := filepath.Abs(cfg.workdir)
	if err != nil {
		return err
	}
	cfg.workdir = filepath.Join(abs, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.workdir)

	rd, err := runLoad(cfg, w)
	if err != nil {
		return err
	}
	// The traced replay goes first: it must meet this process's interner
	// as cold as the daemon met the same values.
	var layers *layerReport
	if cfg.trace {
		if layers, err = traceRun(cfg, rd); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}
	if err := verify(rd); err != nil {
		return fmt.Errorf("verification could not run: %w", err)
	}
	rep := computeE2E(rd)
	printReport(os.Stdout, rd, rep)
	correct := rep.failed == 0
	if !cfg.trace {
		return printResult(os.Stdout, correct, rep.attempted, rep.failed, rep.metrics, endToEnd)
	}
	printLayers(os.Stdout, layers)
	return printResult(os.Stdout, correct, rep.attempted, rep.failed, layers.metrics, perLayer)
}

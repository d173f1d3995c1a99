package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
)

// steady is the steadiness mode: it runs each workload (or the one named)
// cfg.steady times, seeds 1..N, each in a fresh process, as single runs are made,
// and prints per metric the median, the quartiles, their spread as a share
// of the median, and the range. This is the evidence for BENCHMARK.json's
// bounds.
func steady(cfg *config, args []string) error {
	var pass []string // the run flags, minus --steady and --workload
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "--steady", "-steady", "--workload", "-workload", "--seed", "-seed":
			i++
		default:
			pass = append(pass, a)
		}
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		vals := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= cfg.steady; seed++ {
			runArgs := append([]string{"--workload", name, "--seed", strconv.Itoa(seed)}, pass...)
			res, err := runChild(runArgs)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", name, seed, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
				units[k] = m.Unit
			}
		}
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("steadiness %s (%d runs, seeds 1..%d)\n", name, cfg.steady, cfg.steady)
		fmt.Printf("  %-26s %12s %12s %12s %9s %12s %12s\n", "metric", "median", "q1", "q3", "iqr/med", "min", "max")
		for _, k := range keys {
			v := vals[k]
			q1, q3 := quartiles(v)
			med := median(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			fmt.Printf("  %-26s %12.4f %12.4f %12.4f %9.4f %12.4f %12.4f %s\n", k, med, q1, q3, spread, s[0], s[len(s)-1], units[k])
		}
	}
	return nil
}

// runChild runs this binary once and parses its last output line.
func runChild(args []string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s", err, out.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

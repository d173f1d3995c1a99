package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// daemon is one running algrecd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logs    *bytes.Buffer
	done    chan struct{} // closed when the process has exited
	err     error         // exit status, valid after done
	diskDir string        // -disk directory, "" in memory mode
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches algrecd with the given extra flags and waits until
// /healthz answers 200.
func startDaemon(bin string, extra []string, diskDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-grace", "5s"}, extra...)
	d := &daemon{
		cmd:     exec.Command(bin, args...),
		base:    fmt.Sprintf("http://127.0.0.1:%d", port),
		logs:    &bytes.Buffer{},
		done:    make(chan struct{}),
		diskDir: diskDir,
	}
	d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
	// If this process is killed before it can stop the daemon, the kernel
	// kills the daemon too, so no run leaves one behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start algrecd: %w", err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	if err := d.waitHealthy(30 * time.Second); err != nil {
		d.stop()
		return nil, fmt.Errorf("%w\n%s", err, d.logs) // the process has exited: logs is complete
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the deadline passes.
func (d *daemon) waitHealthy(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("algrecd exited during start-up: %v", d.err)
		default:
		}
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("algrecd not healthy after %v", limit)
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("algrecd did not drain within 15s; killed")
	}
	var ee *exec.ExitError
	if d.err != nil && !errors.As(d.err, &ee) {
		return d.err
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuTime is the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", s)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// statusMB reads a memory field of the daemon's /proc status, such as
// "VmHWM" (peak resident set) or "VmRSS", in MiB.
func (d *daemon) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS reads the daemon's resident set (VmRSS) now and every period
// after, until the returned stop function is called; stop returns the
// samples in MiB.
func (d *daemon) sampleRSS(period time.Duration) (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64, 1)
	go func() {
		var mb []float64
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			if v, err := d.statusMB("VmRSS"); err == nil {
				mb = append(mb, v)
			}
			select {
			case <-done:
				out <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// storeGeneration reads the CURRENT generation of the daemon's store for
// database name (0 when there is none): each compaction or checkpoint
// advances it by one.
func storeGeneration(diskDir, name string) int {
	return readGeneration(filepath.Join(diskDir, "db-"+name))
}

// call sends one request and returns the status and body.
func call(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// newConn returns a client that holds at most one connection to the
// daemon, so a closed-loop worker is exactly one connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDBFlags(t *testing.T) {
	var d dbFlags
	if err := d.Set("g=graph.alg"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if len(d) != 1 || d[0].name != "g" || d[0].path != "graph.alg" {
		t.Fatalf("d = %+v", d)
	}
	for _, bad := range []string{"nopath", "=x", "x="} {
		if err := d.Set(bad); err == nil {
			t.Errorf("Set(%q) should fail", bad)
		}
	}
	if d.String() == "" {
		t.Error("String() should describe the flag")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-db", "g=/nonexistent/graph.alg"}); err == nil {
		t.Error("missing database file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.alg")
	if err := os.WriteFile(bad, []byte(`def d = d;`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-db", "g=" + bad})
	if err == nil || !strings.Contains(err.Error(), "rel statements") {
		t.Errorf("a program is not a database: %v", err)
	}
}

func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer("127.0.0.1:0", h)
	if hs.Addr != "127.0.0.1:0" || hs.Handler != h {
		t.Fatalf("addr %q handler %v", hs.Addr, hs.Handler)
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	// Subscriptions stream for the life of the connection: no whole-request
	// read or write deadline may cut them off.
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; want both unset", hs.ReadTimeout, hs.WriteTimeout)
	}
}

package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	eba "repro"
	"repro/internal/httplimit"
)

// TestDaemonBoundsRequests is the regression test for ROADMAP "bad days"
// defect 4: the server ebaserve actually runs must time out a client
// that never finishes its headers, and must refuse — with a 4xx, after
// reading a bounded prefix — a request body that outgrows the limit. The
// oversized bodies are valid requests behind a megabyte of leading
// whitespace, which an unbounded decoder reads through and answers 200.
func TestDaemonBoundsRequests(t *testing.T) {
	_, hs := newDaemon(eba.ServerConfig{}, false)
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatal("ebaserve's http.Server has no ReadHeaderTimeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	post := func(path string, body io.Reader) int {
		t.Helper()
		resp, err := http.Post("http://"+ln.Addr().String()+path, "application/json", body)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// Just over the limit, so the server's closing drain lets the client
	// finish writing and the reply is never lost to a reset connection.
	padding := strings.Repeat(" ", httplimit.MaxJSONBody)
	for path, request := range map[string]string{
		"/v1/sweep":     `{"stack":"min","n":3,"t":1,"shard":"0/4"}`,
		"/v1/check":     `{"stack":"min","n":3,"t":1,"skipOptimality":true}`,
		"/v1/knowledge": `{"stack":"min","n":3,"t":1,"query":"exists","value":1}`,
	} {
		if got := post(path, strings.NewReader(request)); got != http.StatusOK {
			t.Fatalf("%s: a plain request answers %d, want 200", path, got)
		}
		// Declared (Content-Length) and undeclared (chunked) alike.
		for name, body := range map[string]io.Reader{
			"declared": strings.NewReader(padding + request),
			"chunked":  io.MultiReader(strings.NewReader(padding), strings.NewReader(request)),
		} {
			if got := post(path, body); got < 400 || got > 499 {
				t.Errorf("%s: an oversized %s body answers %d, want a 4xx", path, name, got)
			}
		}
	}
}

// TestQuotientFlagGone pins the daemon's removed flags: whether a System
// is built through the symmetry quotient is the checker's decision, and
// the mixed-load check is a test of internal/serve, so ebaserve has a
// flag for neither. A negative budget is refused before anything is
// served, not read as the default.
func TestQuotientFlagGone(t *testing.T) {
	for _, flag := range []string{"-quotient", "-loadtest"} {
		err := run([]string{flag, "-listen", "127.0.0.1:0"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("ebaserve %s: %v; want an unknown-flag error", flag, err)
		}
	}
	for _, flag := range []string{"-parallel", "-systems", "-builds", "-inflight"} {
		err := run([]string{flag, "-1", "-listen", "127.0.0.1:0"})
		if err == nil || !strings.Contains(err.Error(), flag+" -1") || !strings.Contains(err.Error(), "each needs 0 (the default) or more") {
			t.Errorf("ebaserve %s -1: %v; want a usage error", flag, err)
		}
	}
}

// TestPprofOptIn pins -pprof: the profiling index answers only when the
// flag asked for it, and the server's own routes answer either way.
func TestPprofOptIn(t *testing.T) {
	for _, withPprof := range []bool{false, true} {
		_, hs := newDaemon(eba.ServerConfig{}, withPprof)
		index := http.StatusNotFound
		if withPprof {
			index = http.StatusOK
		}
		for path, want := range map[string]int{"/debug/pprof/": index, "/healthz": http.StatusOK} {
			rec := httptest.NewRecorder()
			hs.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != want {
				t.Errorf("pprof %v: GET %s answers %d, want %d", withPprof, path, rec.Code, want)
			}
		}
	}
}

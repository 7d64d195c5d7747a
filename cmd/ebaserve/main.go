// Command ebaserve serves the verification stack over HTTP: sweep
// stripes (byte-identical to ebashard's streams), model-check verdict
// blocks, and epistemic point queries, answered from a hot-System LRU
// with admission control and Prometheus-style /metrics (-pprof adds
// net/http/pprof's /debug/pprof/).
//
//	ebaserve -listen 127.0.0.1:8080 -cache /var/eba-cache -parallel 4
//
// SIGTERM or SIGINT drains gracefully: new work gets 503, in-flight
// requests finish (bounded by -drain-timeout), then the process exits.
// A second signal aborts immediately. Any error, such as a port in use
// or a drain that times out, exits 1; a clean drain exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	eba "repro"
	"repro/internal/httplimit"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ebaserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ebaserve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "address to serve on (host:0 picks a free port and logs it)")
	cacheDir := fs.String("cache", "", "result cache directory backing builds and sweeps")
	parallel := fs.Int("parallel", 0, "per-request worker budget cap (0 = GOMAXPROCS)")
	systems := fs.Int("systems", 0, "hot Systems kept in the LRU, and sweep orbit memos (0 = default 8)")
	builds := fs.Int("builds", 0, "concurrent System builds (0 = default 2)")
	inflight := fs.Int("inflight", 0, "concurrent requests before 429 (0 = default 256)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight requests")
	withPprof := fs.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if min(*parallel, *systems, *builds, *inflight) < 0 {
		return fmt.Errorf("-parallel %d -systems %d -builds %d -inflight %d: each needs 0 (the default) or more", *parallel, *systems, *builds, *inflight)
	}
	return serve(*listen, *cacheDir, *parallel, *systems, *builds, *inflight, *drainTimeout, *withPprof)
}

func serve(listen, cacheDir string, parallel, systems, builds, inflight int, drainTimeout time.Duration, withPprof bool) error {
	store, closeStore, err := eba.OpenResultCache(cacheDir)
	if err != nil {
		return err
	}
	defer closeStore()

	srv, hs := newDaemon(eba.ServerConfig{
		Cache:          store,
		Fingerprint:    eba.CacheFingerprint(),
		MaxSystems:     systems,
		MaxBuilds:      builds,
		MaxInflight:    inflight,
		MaxParallelism: parallel,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}, withPprof)

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ebaserve: listening on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan error, 1)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "ebaserve: %v: draining (in-flight %d); signal again to abort\n", s, srv.Inflight())
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "ebaserve: aborted by second signal")
			cancel()
		}()
		done <- hs.Shutdown(ctx)
	}()

	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "ebaserve: drained")
	return nil
}

// newDaemon pairs the verification server with the HTTP server that
// fronts it, under the limits every daemon in the tree shares; withPprof
// mounts the profiling endpoints beside the server's routes.
func newDaemon(cfg eba.ServerConfig, withPprof bool) (*eba.Server, *http.Server) {
	srv := eba.NewServer(cfg)
	h := srv.Handler()
	if withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		h = mux
	}
	return srv, httplimit.NewServer(h, httplimit.HeaderTimeout)
}

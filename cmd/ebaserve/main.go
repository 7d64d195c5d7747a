// Command ebaserve serves the verification stack over HTTP: sweep
// stripes (byte-identical to ebashard's streams), model-check verdict
// blocks, and epistemic point queries, answered from a hot-System LRU
// with admission control and Prometheus-style /metrics. With -loadtest
// it instead becomes the load harness: it drives a running ebaserve
// with a deterministic mix of concurrent requests, verifies every
// response it can, and prints a summary the bench gate consumes.
//
// Serve (default):
//
//	ebaserve -listen 127.0.0.1:8080 -cache /var/eba-cache -parallel 4
//
// SIGTERM or SIGINT drains gracefully: new work gets 503, in-flight
// requests finish (bounded by -drain-timeout), then the process exits.
// A second signal aborts immediately.
//
// Load test:
//
//	ebaserve -loadtest http://127.0.0.1:8080 -requests 2000 -concurrency 64
//
// Exit codes follow the repository taxonomy: 1 for operational errors,
// 2 for verification failures (a served stream or verdict block failed
// its checks), 3 for transport failures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
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
		os.Exit(exitCode(err))
	}
}

// exitCode maps the error taxonomy to distinct exit codes so wrappers
// can tell a failed verification (2) from a flaky network (3).
func exitCode(err error) int {
	switch {
	case errors.Is(err, eba.ErrFabricVerification):
		return 2
	case errors.Is(err, eba.ErrFabricTransport):
		return 3
	default:
		return 1
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ebaserve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "address to serve on (host:0 picks a free port and logs it)")
	cacheDir := fs.String("cache", "", "result cache directory backing builds and sweeps")
	parallel := fs.Int("parallel", 0, "per-request worker budget cap (0 = GOMAXPROCS)")
	systems := fs.Int("systems", 0, "hot Systems kept in the LRU (0 = default 8)")
	builds := fs.Int("builds", 0, "concurrent System builds (0 = default 2)")
	inflight := fs.Int("inflight", 0, "concurrent requests before 429 (0 = default 256)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight requests")

	loadURL := fs.String("loadtest", "", "run as the load harness against this base URL instead of serving")
	requests := fs.Int("requests", 1000, "loadtest: total requests to issue")
	concurrency := fs.Int("concurrency", 32, "loadtest: concurrent requests")
	stackName := fs.String("stack", "min", "loadtest: protocol stack the mix exercises")
	n := fs.Int("n", 3, "loadtest: number of agents")
	t := fs.Int("t", 1, "loadtest: failure bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *loadURL != "" {
		return runLoadTest(*loadURL, *requests, *concurrency, *stackName, *n, *t)
	}
	return serve(*listen, *cacheDir, *parallel, *systems, *builds, *inflight, *drainTimeout)
}

func serve(listen, cacheDir string, parallel, systems, builds, inflight int, drainTimeout time.Duration) error {
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
	})

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
// fronts it, under the limits every daemon in the tree shares.
func newDaemon(cfg eba.ServerConfig) (*eba.Server, *http.Server) {
	srv := eba.NewServer(cfg)
	return srv, httplimit.NewServer(srv.Handler(), httplimit.HeaderTimeout)
}

func runLoadTest(baseURL string, requests, concurrency int, stack string, n, t int) error {
	sum, err := eba.RunLoadTest(context.Background(), eba.LoadTestConfig{
		BaseURL:     baseURL,
		Requests:    requests,
		Concurrency: concurrency,
		Stack:       stack,
		N:           n,
		T:           t,
	})
	if err != nil {
		return err
	}
	out, merr := json.MarshalIndent(sum, "", "  ")
	if merr != nil {
		return merr
	}
	fmt.Println(string(out))
	fmt.Fprintf(os.Stderr, "ebaserve: loadtest %d requests, %d errors, %.0f req/s, p50 %.1fms p99 %.1fms, %d retries\n",
		sum.Requests, sum.Errors, sum.RequestsPerSecond, sum.P50Millis, sum.P99Millis, sum.Retried429)
	return sum.Err()
}

// Command ebacoord coordinates a cross-machine sweep: it holds one job —
// a stack's exhaustive SO(t) sweep, split into -stripes deterministic
// stripes — and serves the fabric wire protocol to any number of
// ebashard -worker processes. Workers pull stripe leases,
// heartbeat while they run, and upload sealed results; the coordinator
// verifies every upload (record digests, stripe membership, sealed
// footer) before trusting it, requeues the stripes of workers that go
// silent past the lease TTL so surviving workers steal them, and — when
// the last stripe lands — runs the canonical merge. The merged outcome
// stream is bit-identical to a single-process run's.
//
//	ebacoord -stack fip -n 4 -t 1 -stripes 16 -spool /tmp/fab &
//	ebashard -worker http://localhost:8123   # on as many machines as you like
//
// Verified stripes and the merged output live in -spool; a coordinator
// restarted over the same spool re-verifies what's on disk and resumes
// with only the missing stripes outstanding.
//
// Model checks are not distributed: run `ebashard -check -shard i/k` per
// stripe (on as many machines as you like) and one `ebashard -check
// -merge` over the indexes.
//
// Exit codes match ebashard's: 2 for verification failures (torn or
// tampered stripes, digest conflicts between duplicate uploads), 3 for
// transport failures, 1 for everything else.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	eba "repro"
	"repro/internal/httplimit"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ebacoord:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps an error to the command's exit code, mirroring ebashard:
// 2 verification, 3 transport, 1 otherwise.
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
	fs := flag.NewFlagSet("ebacoord", flag.ContinueOnError)
	var (
		stackName = fs.String("stack", "fip", "protocol stack (see eba.Stacks)")
		n         = fs.Int("n", 3, "number of agents")
		t         = fs.Int("t", 1, "failure bound t")
		horizon   = fs.Int("horizon", 0, "execution horizon override (0 = the stack default)")
		stripes   = fs.Int("stripes", 16, "stripe count M — keep M well above the worker count")
		spec      = fs.Bool("spec", true, "workers spec-check every run")
		spool     = fs.String("spool", "", "spool directory for verified stripes and the merged output (required)")
		listen    = fs.String("listen", "127.0.0.1:8123", "address to serve the fabric protocol on (port 0 picks one)")
		leaseTTL  = fs.Duration("lease-ttl", 10*time.Second, "heartbeat TTL before a stripe lease expires and is requeued")
		timeout   = fs.Duration("timeout", 30*time.Second, "bound on server request headers and on shutdown")
		linger    = fs.Duration("linger", 2*time.Second, "how long to keep answering workers after the job ends, so they drain")
		out       = fs.String("out", "", "also copy the merged output here when the job completes (\"-\" for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spool == "" {
		return fmt.Errorf("-spool is required (it is where verified stripes and the merged output live)")
	}

	job := eba.JobSpec{
		Kind:      eba.JobSweep,
		Stack:     *stackName,
		N:         *n,
		T:         *t,
		Horizon:   *horizon,
		Stripes:   *stripes,
		SpecCheck: *spec,
	}
	coord, err := eba.NewCoordinator(eba.CoordinatorConfig{
		Job:      job,
		SpoolDir: *spool,
		LeaseTTL: *leaseTTL,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("%w: %v", eba.ErrFabricTransport, err)
	}
	srv := httplimit.NewServer(coord.Handler(), *timeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "ebacoord: serving %s on http://%s\n", job, ln.Addr())

	// SIGTERM/SIGINT aborts the job; workers polling in see 410 "failed".
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if ok {
			cancel(fmt.Errorf("aborted by %v", s))
		}
	}()

	runErr := coord.Run(ctx)

	// The handlers keep answering after Run returns (410 with the final
	// phase), so a short linger lets every polling worker observe the
	// job's end instead of a connection refused.
	select {
	case err := <-serveErr:
		return fmt.Errorf("%w: serving: %v", eba.ErrFabricTransport, err)
	case <-time.After(*linger):
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), *timeout)
	defer shutCancel()
	srv.Shutdown(shutCtx)

	status := coord.Status()
	fmt.Fprintf(os.Stderr, "ebacoord: phase %s: %d/%d stripes, %d leases, %d expirations, %d steals, %d rejects, %d duplicates\n",
		status.Phase, status.Stripes.Done, status.Stripes.Total,
		status.Counters.Leases, status.Counters.Expirations, status.Counters.Steals,
		status.Counters.Rejects, status.Counters.Duplicates)

	if *out != "" && (status.Phase == eba.FabricComplete) {
		if err := copyMerged(coord.MergedPath(), *out); err != nil {
			if runErr == nil {
				runErr = err
			}
			fmt.Fprintln(os.Stderr, "ebacoord:", err)
		}
	}
	return runErr
}

// copyMerged copies the completed merged output to -out.
func copyMerged(src, dst string) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	w, closeOut := io.Writer(os.Stdout), func() error { return nil }
	if dst != "-" {
		g, err := os.Create(dst)
		if err != nil {
			return err
		}
		w, closeOut = g, g.Close
	}
	if _, err := io.Copy(w, f); err != nil {
		closeOut()
		return err
	}
	return closeOut()
}

// Command macawd is the experiment-campaign daemon: macawsim's table, chaos,
// and sweep generators behind an HTTP/JSON service, at campaign scale.
//
// Usage:
//
//	macawd [-listen ADDR] [-state DIR] [-jobs N]
//
// A client POSTs a campaign manifest to /campaigns — run specs (paper
// tables, extensions, chaos, warm-started sweeps) expanded over seed lists
// at one shared run length — and the daemon fans the resulting jobs out
// through the experiments worker pool. Per-run results stream back as JSONL
// (the metrics snapshot schema of DESIGN.md §12), in job-declaration order,
// byte-identical to the equivalent macawsim invocation.
//
// Every completed job is recorded in a content-addressed cache under
// -state (-state/cache.bin), keyed on (canonical config hash, seed): an
// append-only log to which each job adds one CRC-framed record, its JSONL
// result line, fsynced before the job is reported done. A cache hit
// streams the recorded line as it is. The cache is also the campaign
// ledger: a daemon killed mid-campaign — SIGKILL included — re-schedules
// the persisted campaign on restart and serves every job that finished
// from the cache, re-simulating only the rest; a record torn by the kill
// is cut off on restart and its job re-run. Resubmitting an identical
// campaign (or an overlapping one) is served from cache hits instead of
// re-simulation. A cache file that fails its checks (a corrupt or
// older-format file) is replaced by an empty one. SIGTERM/SIGINT drain
// gracefully: in-flight runs finish and flush their ledger entries, queued
// runs are left for the next start, and the readiness probe flips to 503
// while /healthz keeps answering.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"macaw/internal/campaign"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8791", "address to serve the campaign API on (host:0 picks a free port, printed on stderr)")
	state := flag.String("state", "macawd-state", "state directory: campaign records and the content-addressed result cache")
	jobs := flag.Int("jobs", 0, "max concurrent simulations (0 = one per CPU core)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Minute, "max time to wait for in-flight runs on SIGTERM before exiting anyway")
	flag.Parse()

	eng, err := campaign.NewEngine(*state, *jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macawd: %v\n", err)
		os.Exit(2)
	}
	srv := campaign.NewServer(eng)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macawd: -listen: %v\n", err)
		os.Exit(2)
	}
	// The resolved address line is load-bearing: with ":0" it is how
	// scripts (and the e2e harness) learn the port.
	fmt.Fprintf(os.Stderr, "macawd: listening on %s (state %s, %d workers)\n",
		ln.Addr(), *state, eng.Jobs())

	hs := &http.Server{Handler: srv}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "macawd: %v: draining (in-flight runs finish, queued runs resume on restart)\n", sig)
		srv.SetDraining()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			<-sigs // a second signal exits without waiting for the drain
			fmt.Fprintln(os.Stderr, "macawd: second signal; exiting immediately")
			os.Exit(130)
		}()
		drained := make(chan struct{})
		go func() {
			eng.Drain() // finish in-flight runs, flush the ledger
			close(drained)
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "macawd: drain timeout; exiting with runs still in flight")
		}
		hs.Shutdown(ctx)
		fmt.Fprintln(os.Stderr, "macawd: drained; bye")
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "macawd: serve: %v\n", err)
			os.Exit(1)
		}
	}
}

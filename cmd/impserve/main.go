// Command impserve runs the IMP experiment service: an HTTP API that
// accepts sweep and experiment jobs, executes them on the shared harness
// with a bounded queue and a service-wide simulation cap, caches results by
// content key, and streams NDJSON progress.
//
// Usage:
//
//	impserve -addr :8080 -j 8 -executors 2 -queue 64
//
// With -results-dir the content-addressed result store is also persisted
// to disk (one CRC-checked file per key, corrupt entries evicted on read),
// so a restarted server answers previously computed jobs without
// recomputing them.
//
// Submit and follow a job:
//
//	curl -s localhost:8080/v1/jobs -d '{"sweep":[{"Workload":"spmv","Cores":16,"System":"imp"}]}'
//	curl -s localhost:8080/v1/jobs/j-000001/events
//	curl -s localhost:8080/v1/jobs/j-000001/result
//
// GET /metrics serves Prometheus text exposition; -quota-rate/-quota-burst
// enable per-tenant submission quotas (X-Imp-Tenant header, 429 +
// Retry-After on rejection) and -bulk-threshold tunes which sweeps are
// classed as bulk for the two-lane queue. -checkpoints turns on prefix
// sharing: sweep points whose effective simulation is identical are answered
// from one replay's stored metrics (cached under -ckpt-dir) instead of each
// re-simulating it, with byte-identical results.
//
// The process drains gracefully on SIGINT/SIGTERM: the listener stops, and
// running jobs get -drain to finish before being canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		queue      = fs.Int("queue", 64, "bounded job queue depth (submissions beyond it get 429 + Retry-After)")
		executors  = fs.Int("executors", 2, "max concurrently running jobs")
		parallel   = fs.Int("j", 0, "total in-flight simulations across all jobs (0 = all CPUs)")
		timeout    = fs.Duration("job-timeout", 15*time.Minute, "per-job execution timeout")
		results    = fs.Int("results", 256, "result cache entries (content-addressed, in-memory)")
		resultDir  = fs.String("results-dir", "", "persist results to this directory (CRC-checked files; a restarted server comes back warm)")
		drain      = fs.Duration("drain", 30*time.Second, "shutdown grace before running jobs are canceled")
		quotaRate  = fs.Float64("quota-rate", 0, "per-tenant submissions/sec admitted before 429 (0 = quotas off)")
		quotaBurst = fs.Float64("quota-burst", 0, "per-tenant burst above -quota-rate (0 = rate, min 1)")
		bulkThresh = fs.Int("bulk-threshold", 0, "sweeps larger than this run in the bulk lane (0 = default)")
		ckpts      = fs.Bool("checkpoints", false, "share simulation prefixes between identical sweep points via the checkpoint cache")
		ckptDir    = fs.String("ckpt-dir", "", "checkpoint cache directory (default: IMP_CKPT_CACHE or the user cache dir; \"off\" keeps checkpoints memory-only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *resultDir != "" {
		// Fail fast on an unusable directory here; the service itself
		// treats disk trouble as best-effort so mid-flight failures (full
		// disk) degrade to memory-only instead of failing jobs.
		if err := os.MkdirAll(*resultDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "impserve: -results-dir:", err)
			return 1
		}
	}
	svc := service.New(service.Config{
		QueueDepth:    *queue,
		Executors:     *executors,
		Parallelism:   *parallel,
		JobTimeout:    *timeout,
		StoreEntries:  *results,
		ResultsDir:    *resultDir,
		QuotaRate:     *quotaRate,
		QuotaBurst:    *quotaBurst,
		BulkThreshold: *bulkThresh,
		Checkpoints:   imp.CheckpointPolicy{Enabled: *ckpts, Dir: *ckptDir},
	})
	srv := &http.Server{Handler: svc.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "impserve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "impserve: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "impserve:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop the listener, finish in-flight requests, then
	// let running jobs complete within the grace period before canceling.
	fmt.Fprintln(stdout, "impserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, "impserve: http shutdown:", err)
	}
	if err := svc.Close(shutCtx); err != nil {
		fmt.Fprintln(stderr, "impserve: job drain:", err)
	}
	fmt.Fprintln(stdout, "impserve: bye")
	return 0
}

// Command impload load-tests an imp experiment fleet and snapshots what it
// measured, the way cmd/benchdiff snapshots microbenchmarks: drive a
// cluster with a configurable traffic mix, then write a LOAD_*.json with
// p50/p95/p99 submit and stream latencies, error/rejection counts, and a
// fleet-wide recompute audit (every result key should be executed at most
// once no matter how many times it was submitted).
//
// Two modes:
//
//	impload -target http://router:8090 -profile mixed -duration 60s -clients 8 -out LOAD_abc.json
//	    Drive an already-running improuter (or a single impserve).
//
//	impload -backends 3 -profile hotkey -duration 10s
//	    Self-host an in-process 3-backend cluster (internal/cluster) and
//	    drive it — no processes to start, good for laptops and quick checks.
//
// Profiles:
//
//	mixed    realistic blend: small interactive sweeps, duplicate
//	         resubmissions, medium streams, occasional bulk sweeps
//	hotkey   90% of submissions are one identical spec (hot-key skew)
//	dupes    duplicate-submission storm over a 4-spec pool
//	stream   medium sweeps with every event streamed (stream-heavy clients)
//	slowread stream profile with a deliberately slow reader (drains events
//	         slower than the backend produces them)
//	bulk     large sweeps only, all classed into the bulk lane
//
// Every submission is followed to its terminal event, so the accounting
// closes: ok + rejected + errors = submits, and on a fresh cluster the
// fleet-wide executed delta equals the number of distinct result keys that
// finished (any excess is a recompute — duplicated work the dedup/cache/
// replication machinery should have prevented).
//
// Exit status: 0 on a clean run, 1 when a gate trips (-max-error-rate,
// -fail-on-recompute) or infrastructure fails, 2 on flag misuse. Rejected
// submissions (429 over_quota/queue_full) are admission control working as
// designed and are gated separately from errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/api"
	"github.com/impsim/imp/client"
	"github.com/impsim/imp/internal/cluster"
)

// Snapshot is the JSON schema of one recorded load run.
type Snapshot struct {
	Schema      int     `json:"schema"`
	Commit      string  `json:"commit,omitempty"`
	Profile     string  `json:"profile"`
	Target      string  `json:"target"`
	DurationSec float64 `json:"duration_sec"`
	Clients     int     `json:"clients"`
	Seed        int64   `json:"seed"`

	Ops     OpCounts           `json:"ops"`
	Latency map[string]Latency `json:"latency"`

	// ErrorRate is errors / submits (0 when nothing was submitted).
	ErrorRate float64 `json:"error_rate"`
	// DistinctKeys counts result keys that reached a done terminal state;
	// ExecutedDelta is the fleet-wide executed-counter movement over the
	// run. Recomputes = max(0, delta - distinct) on a fresh cluster: work
	// the dedup/cache/replication machinery executed more than once.
	DistinctKeys  int    `json:"distinct_keys"`
	ExecutedDelta uint64 `json:"executed_delta"`
	Recomputes    uint64 `json:"recomputes"`
	// Checkpointed-sweep deltas over the run (all zero with checkpointing
	// off): points answered from checkpoints, shared replays simulated
	// cold, and simulated cycles the hits did not re-execute.
	// Part of the recompute audit — hits are work the fleet *avoided*, one
	// layer below the job-level dedup the counters above account for.
	CheckpointHitsDelta   uint64 `json:"checkpoint_hits_delta,omitempty"`
	CheckpointMissesDelta uint64 `json:"checkpoint_misses_delta,omitempty"`
	PrefixCyclesSaved     uint64 `json:"prefix_cycles_saved,omitempty"`
}

// OpCounts tallies every operation outcome; Submits = OK + Rejected + Errors.
type OpCounts struct {
	Submits  uint64 `json:"submits"`
	OK       uint64 `json:"ok"`
	Rejected uint64 `json:"rejected"` // 429 admission rejections (quota / queue full)
	Errors   uint64 `json:"errors"`
	Deduped  uint64 `json:"deduped"`
	Cached   uint64 `json:"cached"`
	Events   uint64 `json:"events"` // NDJSON progress events received
}

// Latency summarizes one operation class in milliseconds.
type Latency struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("impload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target     = fs.String("target", "", "base URL of a running improuter or impserve (empty: self-host -backends in-process)")
		backendsN  = fs.Int("backends", 3, "self-hosted cluster size when -target is empty")
		profile    = fs.String("profile", "mixed", "traffic mix: mixed|hotkey|dupes|stream|slowread|bulk")
		duration   = fs.Duration("duration", 30*time.Second, "how long to generate load")
		clients    = fs.Int("clients", 8, "concurrent client workers")
		seed       = fs.Int64("seed", 1, "spec-generation seed (same seed, same traffic)")
		tenant     = fs.String("tenant", "", "X-Imp-Tenant sent with every submission")
		out        = fs.String("out", "", "write the LOAD_*.json snapshot to this file (default stdout)")
		commit     = fs.String("commit", "", "commit id recorded in the snapshot")
		readyTO    = fs.Duration("ready-timeout", 30*time.Second, "how long to wait for the target's /healthz")
		maxErrRate = fs.Float64("max-error-rate", -1, "fail (exit 1) when errors/submits exceeds this (-1: no gate)")
		failRecomp = fs.Bool("fail-on-recompute", false, "fail (exit 1) on any fleet-wide recompute")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	gen, err := newSpecGen(*profile, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "impload:", err)
		return 2
	}
	if *clients < 1 || *duration <= 0 {
		fmt.Fprintln(stderr, "impload: -clients must be >= 1 and -duration positive")
		return 2
	}

	base, httpc := *target, http.DefaultClient
	if base == "" {
		cl, err := cluster.Start(*backendsN, cluster.Options{})
		if err != nil {
			fmt.Fprintln(stderr, "impload:", err)
			return 1
		}
		defer cl.Close()
		base, httpc = cl.Front.URL, cl.Front.Client()
		fmt.Fprintf(stdout, "impload: self-hosted %d-backend cluster at %s\n", *backendsN, base)
	}
	if err := waitReady(base, httpc, *readyTO); err != nil {
		fmt.Fprintln(stderr, "impload:", err)
		return 1
	}

	probe := client.New(base, httpc)
	before, err := executedTotal(probe)
	if err != nil {
		fmt.Fprintln(stderr, "impload: reading pre-run stats:", err)
		return 1
	}

	rec := newRecorder()
	// Workers get until deadline to *start* an op and a grace period to
	// finish streaming it, so the accounting closes instead of the last
	// in-flight jobs being counted as context-canceled errors.
	deadline := time.Now().Add(*duration)
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(2*time.Minute))
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(base, httpc)
			if *tenant != "" {
				c.SetTenant(*tenant)
			}
			c.SetStreamIdleTimeout(time.Minute)
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				runOne(ctx, c, gen, rng, rec)
			}
		}(w)
	}
	wg.Wait()

	after, err := executedTotal(probe)
	if err != nil {
		fmt.Fprintln(stderr, "impload: reading post-run stats:", err)
		return 1
	}

	snap := rec.snapshot()
	snap.Commit = *commit
	snap.Profile = *profile
	snap.Target = base
	snap.DurationSec = duration.Seconds()
	snap.Clients = *clients
	snap.Seed = *seed
	snap.ExecutedDelta = after.executed - before.executed
	if snap.ExecutedDelta > uint64(snap.DistinctKeys) {
		snap.Recomputes = snap.ExecutedDelta - uint64(snap.DistinctKeys)
	}
	snap.CheckpointHitsDelta = after.ckptHits - before.ckptHits
	snap.CheckpointMissesDelta = after.ckptMisses - before.ckptMisses
	snap.PrefixCyclesSaved = after.cyclesSaved - before.cyclesSaved

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "impload:", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "impload:", err)
		return 1
	} else {
		fmt.Fprintf(stdout, "impload: wrote %s\n", *out)
	}
	fmt.Fprintf(stdout, "impload: %d submits (%d ok, %d rejected, %d errors), %d distinct keys, executed delta %d, recomputes %d\n",
		snap.Ops.Submits, snap.Ops.OK, snap.Ops.Rejected, snap.Ops.Errors,
		snap.DistinctKeys, snap.ExecutedDelta, snap.Recomputes)
	if snap.CheckpointHitsDelta+snap.CheckpointMissesDelta > 0 {
		fmt.Fprintf(stdout, "impload: checkpoints: %d hits, %d misses, %d prefix cycles saved\n",
			snap.CheckpointHitsDelta, snap.CheckpointMissesDelta, snap.PrefixCyclesSaved)
	}

	failed := false
	if *maxErrRate >= 0 && snap.ErrorRate > *maxErrRate {
		fmt.Fprintf(stderr, "impload: FAIL error rate %.4f exceeds -max-error-rate %.4f\n", snap.ErrorRate, *maxErrRate)
		failed = true
	}
	if *failRecomp && snap.Recomputes > 0 {
		fmt.Fprintf(stderr, "impload: FAIL %d fleet-wide recompute(s) — duplicated work the cache/dedup/replication layers should have absorbed\n", snap.Recomputes)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// runOne submits one generated spec and follows it to its terminal event,
// recording latencies and outcome.
func runOne(ctx context.Context, c *client.Client, gen *specGen, rng *rand.Rand, rec *recorder) {
	spec, readDelay := gen.next(rng)
	t0 := time.Now()
	st, err := c.Submit(ctx, spec)
	rec.observe("submit", time.Since(t0))
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) && (apiErr.Code == api.CodeOverQuota || apiErr.Code == api.CodeQueueFull) {
			rec.rejected(apiErr.RetryAfter)
			// Honor the hint, capped so a long Retry-After cannot idle the
			// whole worker pool for the rest of the run.
			wait := time.Duration(apiErr.RetryAfter) * time.Second
			if wait > time.Second {
				wait = time.Second
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
			return
		}
		rec.failed()
		return
	}
	rec.submitted(st)

	if st.State.Terminal() {
		// Served from cache: there is no live stream to follow.
		if st.State == api.StateDone {
			rec.done(st.Key, 0)
		} else {
			rec.failed()
		}
		return
	}
	s0 := time.Now()
	err = c.Stream(ctx, st.ID, 0, func(api.Event) {
		rec.event()
		if readDelay > 0 {
			time.Sleep(readDelay) // the slow-reader profile drains late on purpose
		}
	})
	if err != nil {
		rec.failed()
		return
	}
	rec.done(st.Key, time.Since(s0))
}

// waitReady polls /healthz until it answers 200.
func waitReady(base string, httpc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		resp, err := httpc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("healthz: %s", resp.Status)
		} else {
			last = err
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("target %s not ready after %s: %w", base, timeout, last)
}

// fleetCounters is the slice of fleet-wide service counters the recompute
// audit tracks as before/after deltas.
type fleetCounters struct {
	executed    uint64
	ckptHits    uint64
	ckptMisses  uint64
	cyclesSaved uint64
}

func (f *fleetCounters) add(ss *api.ServiceStats) {
	f.executed += ss.Executed
	f.ckptHits += ss.CheckpointHits
	f.ckptMisses += ss.CheckpointMisses
	f.cyclesSaved += ss.PrefixCyclesSaved
}

// executedTotal reads the fleet-wide execution counters: the router's
// aggregated stats when the target is an improuter, the single service's
// stats when it is a bare impserve.
func executedTotal(c *client.Client) (fleetCounters, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var total fleetCounters
	if rs, err := c.RouterStats(ctx); err == nil && len(rs.Backends) > 0 {
		for _, b := range rs.Backends {
			if b.Service != nil {
				total.add(b.Service)
			}
		}
		return total, nil
	}
	ss, err := c.ServiceStats(ctx)
	if err != nil {
		return fleetCounters{}, err
	}
	total.add(&ss)
	return total, nil
}

// recorder accumulates op outcomes and latencies across workers.
type recorder struct {
	mu        sync.Mutex
	ops       OpCounts
	durations map[string][]float64 // op class -> latencies in ms
	doneKeys  map[string]bool
}

func newRecorder() *recorder {
	return &recorder{durations: map[string][]float64{}, doneKeys: map[string]bool{}}
}

func (r *recorder) observe(class string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.durations[class] = append(r.durations[class], float64(d)/float64(time.Millisecond))
	if class == "submit" {
		r.ops.Submits++
	}
}

func (r *recorder) submitted(st api.JobStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st.Deduped {
		r.ops.Deduped++
	}
	if st.Cached {
		r.ops.Cached++
	}
}

func (r *recorder) rejected(int) { r.mu.Lock(); r.ops.Rejected++; r.mu.Unlock() }
func (r *recorder) failed()      { r.mu.Lock(); r.ops.Errors++; r.mu.Unlock() }
func (r *recorder) event()       { r.mu.Lock(); r.ops.Events++; r.mu.Unlock() }

func (r *recorder) done(key string, streamed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops.OK++
	r.doneKeys[key] = true
	if streamed > 0 {
		r.durations["stream"] = append(r.durations["stream"], float64(streamed)/float64(time.Millisecond))
	}
}

func (r *recorder) snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{
		Schema:       1,
		Ops:          r.ops,
		Latency:      map[string]Latency{},
		DistinctKeys: len(r.doneKeys),
	}
	if r.ops.Submits > 0 {
		snap.ErrorRate = float64(r.ops.Errors) / float64(r.ops.Submits)
	}
	for class, ds := range r.durations {
		sort.Float64s(ds)
		snap.Latency[class] = Latency{
			Count: len(ds),
			P50ms: percentile(ds, 0.50),
			P95ms: percentile(ds, 0.95),
			P99ms: percentile(ds, 0.99),
			MaxMs: ds[len(ds)-1],
		}
	}
	return snap
}

// percentile reads the nearest-rank percentile from a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// specGen generates job specs for one traffic profile. Points are kept
// cheap (small cores, small scale) so the soak measures the service stack —
// queueing, dedup, routing, streaming — rather than simulator throughput.
type specGen struct {
	profile string
	// hot is the profile's hot-key spec (hotkey profile) and pool the
	// duplicate-storm specs (dupes profile); both fixed at construction so
	// every worker collides on the same keys.
	hot  api.JobSpec
	pool []api.JobSpec
}

func newSpecGen(profile string, seed int64) (*specGen, error) {
	switch profile {
	case "mixed", "hotkey", "dupes", "stream", "slowread", "bulk":
	default:
		return nil, fmt.Errorf("unknown -profile %q (want mixed|hotkey|dupes|stream|slowread|bulk)", profile)
	}
	rng := rand.New(rand.NewSource(seed))
	g := &specGen{profile: profile, hot: smallSweep(rng, 2)}
	for i := 0; i < 4; i++ {
		g.pool = append(g.pool, smallSweep(rng, 1+i%3))
	}
	return g, nil
}

// next returns the next spec and the per-event read delay the streaming
// side should apply (nonzero only for the slow-reader profile).
func (g *specGen) next(rng *rand.Rand) (api.JobSpec, time.Duration) {
	switch g.profile {
	case "hotkey":
		if rng.Intn(10) < 9 {
			return g.hot, 0
		}
		return smallSweep(rng, 1+rng.Intn(3)), 0
	case "dupes":
		return g.pool[rng.Intn(len(g.pool))], 0
	case "stream":
		return mediumSweep(rng), 0
	case "slowread":
		return mediumSweep(rng), time.Duration(20+rng.Intn(30)) * time.Millisecond
	case "bulk":
		return bulkSweep(rng), 0
	default: // mixed
		switch n := rng.Intn(100); {
		case n < 50:
			return smallSweep(rng, 1+rng.Intn(4)), 0
		case n < 70:
			return g.pool[rng.Intn(len(g.pool))], 0
		case n < 90:
			return mediumSweep(rng), 0
		case n < 95:
			return bulkSweep(rng), 0
		default:
			return mediumSweep(rng), 25 * time.Millisecond
		}
	}
}

// workloadSet is resolved once; sweeps draw from it so specs stay valid
// whatever the simulator's registered workloads are.
var workloadSet = imp.Workloads()

func sweepConfig(rng *rand.Rand) imp.Config {
	cores := []int{1, 4, 16}[rng.Intn(3)]
	return imp.Config{
		Workload: workloadSet[rng.Intn(len(workloadSet))],
		Cores:    cores,
		Scale:    0.05,
		System:   []imp.System{imp.SystemBaseline, imp.SystemIMP}[rng.Intn(2)],
		Seed:     rng.Int63n(1 << 30),
	}
}

func sweep(rng *rand.Rand, points int, lane api.Lane) api.JobSpec {
	spec := api.JobSpec{Priority: lane}
	for i := 0; i < points; i++ {
		spec.Sweep = append(spec.Sweep, sweepConfig(rng))
	}
	return spec
}

func smallSweep(rng *rand.Rand, points int) api.JobSpec {
	return sweep(rng, points, api.LaneInteractive)
}

func mediumSweep(rng *rand.Rand) api.JobSpec {
	return sweep(rng, 6+rng.Intn(6), "") // lane resolved by size
}

func bulkSweep(rng *rand.Rand) api.JobSpec {
	return sweep(rng, 20+rng.Intn(12), api.LaneBulk)
}

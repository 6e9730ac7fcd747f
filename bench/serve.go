package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/api"
	"github.com/impsim/imp/bench/internal/meter"
	"github.com/impsim/imp/client"
	"github.com/impsim/imp/internal/cluster"
)

// serve is both fleet workloads: a client round-trip (submit, stream to the
// terminal event, fetch the result) through a router and two backends with
// on-disk result stores and two copies of every result. Cold, every op is a
// job no backend has seen; warm, every op is one of sixteen jobs completed in
// set-up and must come back from the store.
type serve struct {
	cold bool
	e    *env
	cl   *cluster.Cluster
	c    *client.Client
	base api.StatsResponse // counters at the end of set-up

	// warm: the sixteen completed jobs and their result bytes.
	specs []api.JobSpec
	want  [][]byte

	mu      sync.Mutex
	sampled []sample // cold: every 20th job, checked against the library after the window
	owner   string   // id of a finished job, for the router-hop probe
	hopSpec api.JobSpec
}

type sample struct {
	spec api.JobSpec
	data []byte
}

var serveKernels = []string{"spmv", "pagerank", "sgd", "lsh"}

const (
	serveScale   = 0.15
	serveClients = 2
	warmJobs     = 16
	// One warm pass repeats the sixteen jobs so that the per-pass
	// bookkeeping is small beside a third-of-a-millisecond op.
	warmPassLen = warmJobs * 64
	coldPassLen = 16
	opTimeout   = 2 * time.Minute
)

func (w *serve) name() string {
	if w.cold {
		return "serve-cold"
	}
	return "serve-warm"
}

func (w *serve) passLen() int {
	if w.cold {
		return coldPassLen
	}
	return warmPassLen
}

// kinds: a cold job's cost goes with its kernel, a warm job's with the job.
func (w *serve) kinds() int {
	if w.cold {
		return len(serveKernels)
	}
	return warmJobs
}

func (w *serve) clients() int { return serveClients }

func (w *serve) passesPer10s() int {
	if w.cold {
		return 20
	}
	return 40
}

// spec is job n of this workload: base and IMP on one kernel, on inputs
// seeded by n, so that two different n never share a trace or a result.
func (w *serve) spec(n int) api.JobSpec {
	k := serveKernels[n%len(serveKernels)]
	cfg := imp.Config{
		Workload: k, Cores: w.e.size.cores, Scale: w.e.size.scaleOr(serveScale),
		Seed: meter.SubSeed(w.e.seed, w.name()+"/"+k, n),
	}
	imprv := cfg
	cfg.System, imprv.System = imp.SystemBaseline, imp.SystemIMP
	return api.JobSpec{Sweep: []imp.Config{cfg, imprv}, Parallelism: 1}
}

func (w *serve) setUp(e *env, rep int) error {
	w.e = e
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-results-%d", w.name(), rep))
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if !w.cold {
		if err := w.completeJobs(ctx, dir, rep); err != nil {
			return err
		}
	}
	cl, err := cluster.Start(2, cluster.Options{ResultsDir: dir})
	if err != nil {
		return err
	}
	w.cl, w.c = cl, cl.Client()
	w.base, err = w.c.RouterStats(ctx)
	return err
}

// completeJobs runs the sixteen warm jobs on a fleet of their own, waits
// until both backends hold every result on disk, and shuts that fleet down.
// The fleet the ops then meet has the results in its stores but has never
// seen the jobs: a backend answers a repeat of a job it still remembers from
// its job table, and only an unknown one from the store, which is the path
// this workload is here to time.
func (w *serve) completeJobs(ctx context.Context, dir string, rep int) error {
	first, err := cluster.Start(2, cluster.Options{ResultsDir: dir})
	if err != nil {
		return err
	}
	defer first.Close()
	c := first.Client()
	w.specs, w.want = w.specs[:0], w.want[:0]
	var keys []string
	for n := 0; n < warmJobs; n++ {
		// Jobs of different repetitions must differ too: the trace cache
		// is process-wide and outlives a fleet.
		spec := w.spec(rep*warmJobs + n)
		st, data, err := c.Run(ctx, spec, nil)
		if err != nil {
			return err
		}
		w.specs, w.want, keys = append(w.specs, spec), append(w.want, data), append(keys, st.Key)
	}
	for b := range first.Backends {
		for _, key := range keys {
			for {
				if _, err := first.BackendClient(b).StoredResult(ctx, key); err == nil {
					break
				}
				select {
				case <-ctx.Done():
					return fmt.Errorf("serve-warm: backend %d never stored result %s: %w", b, key, ctx.Err())
				case <-time.After(5 * time.Millisecond):
				}
			}
		}
	}
	return nil
}

func (w *serve) tearDown() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
}

// roundTrip is the op. Untraced it is the one client.Run call; traced it is
// the same three steps made one by one, each under its span, with the
// backend's queue and execution phases added from the job's timestamps.
func (w *serve) roundTrip(ctx context.Context, spec api.JobSpec, t *opTrace) (time.Duration, api.JobStatus, []byte, error) {
	t0 := time.Now()
	if t == nil {
		st, data, err := w.c.Run(ctx, spec, nil)
		return time.Since(t0), st, data, err
	}
	end := t.span("client.submit")
	st, err := w.c.Submit(ctx, spec)
	end()
	if err != nil {
		return time.Since(t0), st, nil, err
	}
	if !st.State.Terminal() {
		end = t.span("client.stream")
		err = w.c.Stream(ctx, st.ID, 0, nil)
		end()
		if err != nil {
			return time.Since(t0), st, nil, err
		}
	}
	end = t.span("client.result")
	final, err := w.c.Status(ctx, st.ID)
	var data []byte
	if err == nil && final.State != api.StateDone {
		err = fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	if err == nil {
		data, err = w.c.Result(ctx, final.ID)
	}
	end()
	d := time.Since(t0)
	t.phase("service.queue", final.SubmittedAt, final.StartedAt)
	t.phase("service.exec", final.StartedAt, final.FinishedAt)
	return d, final, data, err
}

func (w *serve) op(i int, t *opTrace) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if !w.cold {
		slot := i % warmJobs
		d, st, data, err := w.roundTrip(ctx, w.specs[slot], t)
		if i == 0 {
			w.owner, w.hopSpec = st.ID, w.specs[slot]
		}
		switch {
		case err != nil:
			return d, err
		case !st.Cached:
			return d, fmt.Errorf("serve-warm: job %s was not answered from the store", st.ID)
		case !bytes.Equal(data, w.want[slot]):
			return d, fmt.Errorf("serve-warm: job %s came back with other bytes than in set-up", st.ID)
		}
		if i < warmJobs {
			w.modelCells(t, w.specs[slot], data)
		}
		return d, nil
	}
	spec := w.spec(i)
	d, st, data, err := w.roundTrip(ctx, spec, t)
	if i == 0 {
		w.owner, w.hopSpec = st.ID, spec
	}
	switch {
	case err != nil:
		return d, err
	case st.Cached:
		return d, fmt.Errorf("serve-cold: job %s was answered from the store, not executed", st.ID)
	}
	w.mu.Lock()
	if i%20 == 0 {
		w.sampled = append(w.sampled, sample{spec, data})
	}
	w.mu.Unlock()
	w.modelCells(t, spec, data)
	return d, nil
}

// modelCells decodes a first-pass result for the model record.
func (w *serve) modelCells(t *opTrace, spec api.JobSpec, data []byte) {
	if t == nil || t.m == nil {
		return
	}
	var sr api.SweepResult
	if err := json.Unmarshal(data, &sr); err != nil || len(sr.Results) != len(spec.Sweep) {
		return // the byte-level checks report a broken result
	}
	for p, res := range sr.Results {
		cfg := spec.Sweep[p]
		t.cell(cell{
			point: p, kernel: cfg.Workload, system: cfg.System.String(), cycles: res.Cycles,
			flitHops: res.NoCFlitHops, dramBytes: res.DRAMBytes,
			cores: cfg.Cores, scale: cfg.Scale, seed: cfg.Seed,
		})
	}
	t.result(data)
}

// after checks the sampled cold results against the library called directly,
// and that warm ops caused no execution at all.
func (w *serve) after() (attempted, failed int) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if !w.cold {
		st, err := w.c.RouterStats(ctx)
		if n := fleetTotals(st).Executed - fleetTotals(w.base).Executed; err != nil || n != 0 {
			fmt.Fprintf(os.Stderr, "serve-warm: %d jobs were executed during warm ops (err %v)\n", n, err)
			return 1, 1
		}
		return 1, 0
	}
	for _, s := range w.sampled {
		attempted++
		res, err := imp.RunSweep(ctx, s.spec.Sweep, imp.SweepOptions{})
		var want []byte
		if err == nil {
			want, err = json.MarshalIndent(api.SweepResult{Results: res}, "", "  ")
		}
		if err != nil || !bytes.Equal(want, s.data) {
			fmt.Fprintf(os.Stderr, "serve-cold: a served result differs from imp.RunSweep (err %v)\n", err)
			failed++
		}
	}
	return attempted, failed
}

// fleetTotals sums the backends' own counters.
func fleetTotals(st api.StatsResponse) api.ServiceStats {
	var sum api.ServiceStats
	for _, b := range st.Backends {
		if s := b.Service; s != nil {
			sum.Executed += s.Executed
			sum.Cached += s.Cached
			sum.Deduped += s.Deduped
		}
	}
	return sum
}

// layer reports the fleet's own counters since set-up, and the router hop:
// a stored job fetched through the router against the same job fetched from
// the backend that owns it.
func (w *serve) layer(vals map[string]float64) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	st, err := w.c.RouterStats(ctx)
	if err != nil {
		return err
	}
	now, was := fleetTotals(st), fleetTotals(w.base)
	vals["service.executed"] = float64(now.Executed - was.Executed)
	vals["service.cached"] = float64(now.Cached - was.Cached)
	vals["service.deduped"] = float64(now.Deduped - was.Deduped)
	if !w.cold {
		vals["service.recomputes"] = vals["service.executed"]
	}
	vals["router.replica_puts"] = float64(st.ReplicaPuts - w.base.ReplicaPuts)
	vals["router.replica_errors"] = float64(st.ReplicaErrors - w.base.ReplicaErrors)
	vals["router.read_repairs"] = float64(st.ReadRepairs - w.base.ReadRepairs)
	vals["router.hop_us"], err = w.routerHop(ctx)
	return err
}

// routerHop is the median warm round-trip through the router minus the
// median one straight to the owning backend, in microseconds.
func (w *serve) routerHop(ctx context.Context) (float64, error) {
	name, _, ok := strings.Cut(w.owner, ".")
	idx, err := strconv.Atoi(strings.TrimPrefix(name, "b"))
	if !ok || err != nil || idx >= len(w.cl.Backends) {
		return 0, fmt.Errorf("job id %q names no backend", w.owner)
	}
	const n = 200
	median := func(c *client.Client) (float64, error) {
		us := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, _, err := c.Run(ctx, w.hopSpec, nil); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return meter.Median(us), nil
	}
	routed, err := median(w.c)
	if err != nil {
		return 0, err
	}
	direct, err := median(w.cl.BackendClient(idx))
	if err != nil {
		return 0, err
	}
	return routed - direct, nil
}

// Package service implements the impserve experiment service: a bounded
// two-lane job queue in front of the imp sweep harness, a content-addressed
// result store, and an HTTP API (submit / status / result / cancel / NDJSON
// progress streaming / Prometheus metrics).
//
// Design constraints, in order:
//
//   - Results are a pure function of the job spec. A job executed by the
//     service yields bytes identical to direct imp.RunSweep /
//     imp.Experiments.Run output at any parallelism, so results can be
//     cached by content key (spec + trace.FormatVersion +
//     workload.GenVersion) and shared between identical submissions.
//   - Identical work runs at most once: an in-flight job index deduplicates
//     concurrent duplicate submissions (singleflight on the result key),
//     and finished results are served from the store without executing.
//   - Load is bounded everywhere: the queue depth caps waiting jobs, the
//     executor count caps running jobs, and one imp.Gate shared across all
//     jobs caps total in-flight simulations regardless of per-job
//     parallelism, so a burst of submissions cannot oversubscribe the host.
//   - Overload is answered, not absorbed: a full queue and an over-quota
//     tenant both get 429 with a Retry-After hint (api.Error), so clients
//     learn to back off instead of piling onto an unbounded backlog.
//   - Latency-sensitive work is not starved: submissions are scheduled in
//     two lanes (api.LaneInteractive / api.LaneBulk). Executors prefer the
//     interactive lane, with a small anti-starvation share for bulk, so a
//     storm of sweeps cannot park a small submit behind all of them.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/api"
	"github.com/impsim/imp/internal/admission"
	"github.com/impsim/imp/internal/castore"
	"github.com/impsim/imp/internal/jobkey"
	"github.com/impsim/imp/internal/metrics"
)

// Config parameterizes a Service. Zero values select the defaults.
type Config struct {
	// QueueDepth bounds jobs waiting to run across both lanes (default 64).
	// Submissions beyond it fail with ErrQueueFull (HTTP 429 + Retry-After)
	// rather than queueing unboundedly.
	QueueDepth int
	// Executors bounds concurrently running jobs (default 2).
	Executors int
	// Parallelism caps total in-flight simulations across all running jobs
	// (default GOMAXPROCS), enforced by a shared imp.Gate.
	Parallelism int
	// JobTimeout bounds one job's execution (default 15m); a spec's
	// TimeoutSec overrides it per job, still capped by JobTimeout.
	JobTimeout time.Duration
	// StoreEntries bounds the in-memory result cache (default 256 results).
	StoreEntries int
	// ResultsDir, when set, backs the result store with a persistent
	// directory (one CRC-checked castore file per key), so a
	// restarted service answers previously computed results without
	// recompute. Empty keeps the store memory-only. Disk writes are
	// best-effort: an unusable directory degrades to memory-only behavior
	// rather than failing jobs.
	ResultsDir string
	// MaxJobs bounds retained job records; the oldest finished jobs are
	// evicted beyond it (default 1024). Their results stay in the store.
	MaxJobs int
	// QuotaRate grants each tenant (X-Imp-Tenant) this many submissions per
	// second, enforced by a token bucket; QuotaBurst is the bucket capacity
	// (default max(QuotaRate, 1)). QuotaRate <= 0 disables quotas.
	QuotaRate  float64
	QuotaBurst float64
	// BulkThreshold is the sweep size beyond which an unlabeled submission
	// is classified into the bulk lane (default api.DefaultBulkThreshold).
	BulkThreshold int
	// Checkpoints, when enabled, lets jobs share simulation prefixes
	// through the checkpoint cache: sweep points with identical effective
	// simulations are answered from one replay's stored metrics instead of
	// each re-simulating it. Results are byte-identical either way.
	Checkpoints imp.CheckpointPolicy
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.StoreEntries <= 0 {
		c.StoreEntries = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.BulkThreshold <= 0 {
		c.BulkThreshold = api.DefaultBulkThreshold
	}
	return c
}

// Sentinel errors mapped to HTTP statuses by the handler layer.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (HTTP 429 + Retry-After; the wire error is
	// api.CodeQueueFull).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed rejects submissions after Close (HTTP 503).
	ErrClosed = errors.New("service: shutting down")
	// ErrUnknownJob reports a job id with no record (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotFinished reports a result request for an unfinished job
	// (HTTP 409).
	ErrNotFinished = errors.New("service: job not finished")
	// ErrJobFailed reports a result request for a failed or canceled job
	// (HTTP 409).
	ErrJobFailed = errors.New("service: job did not produce a result")
)

// Stats is the service's /v1/stats document — the shared wire type.
type Stats = api.ServiceStats

// typedErr pairs a package sentinel with its wire form, so errors.Is sees
// the sentinel (existing callers branch on ErrQueueFull) while the HTTP
// layer errors.As the *api.Error for the typed body and Retry-After header.
type typedErr struct {
	wire     *api.Error
	sentinel error
}

func (e *typedErr) Error() string   { return e.wire.Message }
func (e *typedErr) Unwrap() []error { return []error{e.wire, e.sentinel} }

func queueFullError(retryAfter int) error {
	wire := api.Errorf(api.CodeQueueFull, "%s (retry in ~%ds)", ErrQueueFull.Error(), retryAfter)
	wire.RetryAfter = retryAfter
	return &typedErr{wire: wire, sentinel: ErrQueueFull}
}

// Service owns the job queues, the executors and the result store.
type Service struct {
	cfg     Config
	gate    imp.Gate
	store   resultStore
	limiter *admission.Limiter
	reg     *metrics.Registry

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	qcond    *sync.Cond // signals executors when work arrives or Close runs
	closed   bool
	nextID   int
	jobs     map[string]*Job
	order    []string        // submission order, for listing and eviction
	byKey    map[string]*Job // live singleflight index: queued/running/done
	qlanes   map[api.Lane][]*Job
	running  map[api.Lane]int
	dequeues uint64 // scheduler tick, drives the anti-starvation share
	executed uint64
	deduped  uint64
	cached   uint64
	// ewmaJobSec smooths observed job durations; the queue-full Retry-After
	// hint is backlog x this / executors.
	ewmaJobSec float64
	wg         sync.WaitGroup

	// Registry-native instruments (the registry is their single source of
	// truth; Stats() reads them back rather than double-counting).
	mQuotaRej  *metrics.CounterVec
	mQueueRej  *metrics.Counter
	mQueueWait *metrics.HistogramVec
	mJobDur    *metrics.HistogramVec
}

// New starts a Service with cfg.Executors executor goroutines. Close it to
// release them.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		gate:       imp.NewGate(cfg.Parallelism),
		store:      castore.New(cfg.StoreEntries, 0),
		limiter:    admission.New(cfg.QuotaRate, cfg.QuotaBurst),
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       make(map[string]*Job),
		byKey:      make(map[string]*Job),
		qlanes:     map[api.Lane][]*Job{api.LaneInteractive: nil, api.LaneBulk: nil},
		running:    map[api.Lane]int{api.LaneInteractive: 0, api.LaneBulk: 0},
	}
	s.qcond = sync.NewCond(&s.mu)
	s.initMetrics()
	s.wg.Add(cfg.Executors)
	for i := 0; i < cfg.Executors; i++ {
		go s.executor()
	}
	return s
}

// initMetrics builds the service's Prometheus registry. Counters that
// already live on the Service or the store are exported through func
// collectors (scrapes read the live values — /v1/stats and /metrics can
// never disagree); admission counters and latency histograms are
// registry-native instruments.
func (s *Service) initMetrics() {
	r := metrics.New()
	s.reg = r
	s.mQuotaRej = r.CounterVec("imp_service_quota_rejections_total",
		"Submissions rejected because the tenant's token bucket was empty (HTTP 429).", "tenant")
	s.mQueueRej = r.Counter("imp_service_queue_rejections_total",
		"Submissions rejected by queue-depth admission control (HTTP 429).")
	s.mQueueWait = r.HistogramVec("imp_service_queue_wait_seconds",
		"Time jobs spent queued before an executor picked them up.", nil, "lane")
	s.mJobDur = r.HistogramVec("imp_service_job_duration_seconds",
		"Wall-clock job execution time.", nil, "lane")

	lockedCount := func(read func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return read()
		}
	}
	r.CounterFunc("imp_service_submitted_total", "Jobs submitted (including deduped and cached answers).",
		lockedCount(func() float64 { return float64(s.nextID) }))
	r.CounterFunc("imp_service_executed_total", "Jobs actually executed (cache and dedup misses).",
		lockedCount(func() float64 { return float64(s.executed) }))
	r.CounterFunc("imp_service_deduped_total", "Submissions answered by a live in-flight job with the same key.",
		lockedCount(func() float64 { return float64(s.deduped) }))
	r.CounterFunc("imp_service_cached_total", "Submissions answered from the result store.",
		lockedCount(func() float64 { return float64(s.cached) }))
	r.SampleFunc("imp_service_queue_depth", "Jobs waiting to run, by lane.",
		metrics.TypeGauge, []string{"lane"}, func() []metrics.Sample {
			s.mu.Lock()
			defer s.mu.Unlock()
			return laneSamples(func(l api.Lane) float64 { return float64(len(s.qlanes[l])) })
		})
	r.SampleFunc("imp_service_running", "Jobs currently executing, by lane.",
		metrics.TypeGauge, []string{"lane"}, func() []metrics.Sample {
			s.mu.Lock()
			defer s.mu.Unlock()
			return laneSamples(func(l api.Lane) float64 { return float64(s.running[l]) })
		})
	r.CounterFunc("imp_service_store_hits_total", "Result-store hits.",
		func() float64 { st := s.store.Stats(); return float64(st.MemHits + st.DiskHits) })
	r.CounterFunc("imp_service_store_puts_total", "Result-store writes.",
		func() float64 { return float64(s.store.Stats().Puts) })
	r.GaugeFunc("imp_service_store_entries", "Results currently cached in memory.",
		func() float64 { return float64(s.store.Stats().Entries) })
	r.CounterFunc("imp_service_store_disk_hits_total", "Results read from the persistent store layer.",
		func() float64 { return float64(s.store.Stats().DiskHits) })
	r.CounterFunc("imp_service_store_disk_puts_total", "Results written to the persistent store layer.",
		func() float64 { return float64(s.store.Stats().DiskPuts) })
	r.CounterFunc("imp_service_store_corrupt_total", "On-disk results evicted for failing their integrity check.",
		func() float64 { return float64(s.store.Stats().Corrupt) })
	// Checkpointed-sweep counters. The imp package counts process-wide (one
	// checkpoint cache per process), which is exactly the service's scope.
	r.CounterFunc("imp_service_checkpoint_hits_total", "Sweep points answered from a checkpoint (a finished simulation's stored metrics).",
		func() float64 { return float64(imp.GetCheckpointStats().Hits) })
	r.CounterFunc("imp_service_checkpoint_misses_total", "Shared replays simulated cold and published to the checkpoint cache.",
		func() float64 { return float64(imp.GetCheckpointStats().Misses) })
	r.CounterFunc("imp_service_prefix_cycles_saved_total", "Simulated cycles read from checkpoints instead of re-simulated.",
		func() float64 { return float64(imp.GetCheckpointStats().PrefixCyclesSaved) })
}

func laneSamples(val func(api.Lane) float64) []metrics.Sample {
	out := make([]metrics.Sample, 0, len(api.Lanes))
	for _, l := range api.Lanes {
		out = append(out, metrics.Sample{Labels: []string{string(l)}, Value: val(l)})
	}
	return out
}

// Metrics exposes the service's Prometheus registry (GET /metrics).
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Job is one submitted unit of work. All mutable fields are guarded by mu;
// cond broadcasts on every event append and state change.
type Job struct {
	id   string
	key  string
	spec api.JobSpec
	lane api.Lane

	mu        sync.Mutex
	cond      *sync.Cond
	state     api.JobState
	events    []api.Event
	done      int
	total     int
	result    []byte
	errMsg    string
	cached    bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancelRun context.CancelFunc // set while running
	cancelReq bool
}

func newJob(id, key string, spec api.JobSpec, lane api.Lane) *Job {
	j := &Job{id: id, key: key, spec: spec, lane: lane, state: api.StateQueued, submitted: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	if len(spec.Sweep) > 0 {
		j.total = len(spec.Sweep)
	}
	return j
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's normalized specification.
func (j *Job) Spec() api.JobSpec { return j.spec }

// Lane returns the scheduling lane the job was classified into.
func (j *Job) Lane() api.Lane { return j.lane }

// Status snapshots the job.
func (j *Job) Status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.JobStatus{
		ID: j.id, Key: j.key, State: j.state,
		Done: j.done, Total: j.total,
		Error: j.errMsg, Cached: j.cached,
		SubmittedAt: j.submitted, StartedAt: j.started, FinishedAt: j.finished,
	}
}

// Result returns the job's result bytes once StateDone; before that it
// fails with ErrNotFinished, and for failed/canceled jobs with ErrJobFailed.
func (j *Job) Result() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == api.StateDone:
		return j.result, nil
	case j.state.Terminal():
		return nil, fmt.Errorf("%w: %s (%s)", ErrJobFailed, j.state, j.errMsg)
	default:
		return nil, fmt.Errorf("%w: %s", ErrNotFinished, j.state)
	}
}

// WaitEvents blocks until events past seq exist or ctx is done, then
// returns a copy of them. After the terminal event has been returned,
// subsequent calls return immediately with no events and terminal=true.
func (j *Job) WaitEvents(ctx context.Context, seq int) (evs []api.Event, terminal bool, err error) {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for seq >= len(j.events) && !j.state.Terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	if seq >= len(j.events) {
		if j.state.Terminal() {
			return nil, true, nil
		}
		return nil, false, ctx.Err()
	}
	evs = append(evs, j.events[seq:]...)
	return evs, j.state.Terminal(), nil
}

// addEvent appends one progress event; callers must not hold mu.
func (j *Job) addEvent(ev api.Event) {
	j.mu.Lock()
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	if ev.Done > j.done {
		j.done = ev.Done
	}
	if ev.Total > j.total {
		j.total = ev.Total
	}
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Submit is SubmitFrom for the anonymous (default) tenant.
func (s *Service) Submit(spec api.JobSpec) (api.JobStatus, error) {
	return s.SubmitFrom("", spec)
}

// SubmitFrom validates, normalizes and keys spec on behalf of tenant, then
// answers it from the in-flight index (dedup), the result store (cache) or
// a fresh queued job. Admission control runs up front: an over-quota tenant
// is rejected with api.CodeOverQuota before any work happens, and a full
// queue rejects with ErrQueueFull/api.CodeQueueFull — both carrying a
// Retry-After hint.
func (s *Service) SubmitFrom(tenant string, spec api.JobSpec) (api.JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return api.JobStatus{}, err
	}
	if ok, retryAfter := s.limiter.Allow(tenant); !ok {
		name := tenant
		if name == "" {
			name = admission.DefaultTenant
		}
		s.mQuotaRej.With(name).Inc()
		wire := api.Errorf(api.CodeOverQuota, "service: tenant %q over submission quota", name)
		wire.RetryAfter = retryAfter
		return api.JobStatus{}, wire
	}
	spec.Normalize()
	key, err := ResultKey(spec)
	if err != nil {
		return api.JobStatus{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return api.JobStatus{}, ErrClosed
	}
	if live, ok := s.byKey[key]; ok {
		s.deduped++
		s.mu.Unlock()
		st := live.Status()
		st.Deduped = true
		return st, nil
	}
	s.mu.Unlock()

	// The store lookup runs outside s.mu: with a results dir it can touch
	// disk, and every other API path would otherwise queue behind that
	// read. The cost is a benign race — a concurrent duplicate submission
	// can register a live job while we read — so re-check the singleflight
	// index after relocking before committing either way.
	data, inStore := s.store.Get(key, s.cfg.ResultsDir)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return api.JobStatus{}, ErrClosed
	}
	if live, ok := s.byKey[key]; ok {
		s.deduped++
		st := live.Status()
		st.Deduped = true
		return st, nil
	}
	if inStore {
		s.cached++
		j := s.newJobLocked(key, spec)
		now := time.Now()
		j.state = api.StateDone
		j.result = data
		j.cached = true
		j.started, j.finished = now, now
		j.events = []api.Event{{State: api.StateDone}}
		s.registerLocked(j)
		st := j.Status()
		st.Cached = true
		return st, nil
	}
	if s.queuedLocked() >= s.cfg.QueueDepth {
		s.mQueueRej.Inc()
		return api.JobStatus{}, queueFullError(s.retryHintLocked())
	}
	j := s.newJobLocked(key, spec)
	s.registerLocked(j)
	s.byKey[key] = j
	s.qlanes[j.lane] = append(s.qlanes[j.lane], j)
	s.qcond.Signal()
	return j.Status(), nil
}

func (s *Service) queuedLocked() int {
	n := 0
	for _, q := range s.qlanes {
		n += len(q)
	}
	return n
}

// retryHintLocked estimates, in whole seconds, when queue capacity frees
// up: the backlog (queued + running) times the smoothed job duration,
// divided across the executors, clamped to [1s, 60s] so the header is
// always sane even while the estimate is still warming up.
func (s *Service) retryHintLocked() int {
	perJob := s.ewmaJobSec
	if perJob <= 0 {
		perJob = 2 // no completed jobs yet; guess conservatively
	}
	backlog := s.queuedLocked() + s.running[api.LaneInteractive] + s.running[api.LaneBulk]
	est := perJob * float64(backlog) / float64(s.cfg.Executors)
	return int(math.Min(60, math.Max(1, math.Ceil(est))))
}

func (s *Service) newJobLocked(key string, spec api.JobSpec) *Job {
	s.nextID++
	return newJob(fmt.Sprintf("j-%06d", s.nextID), key, spec, spec.EffectiveLane(s.cfg.BulkThreshold))
}

func (s *Service) registerLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	// Evict the oldest finished jobs beyond the retention cap; their
	// results survive in the store.
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			old := s.jobs[id]
			if old == nil || !old.Status().State.Terminal() {
				continue
			}
			delete(s.jobs, id)
			if s.byKey[old.key] == old {
				delete(s.byKey, old.key)
			}
			s.order = append(s.order[:i], s.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			break // everything live; stay over cap briefly
		}
	}
}

// Job looks a job up by id.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs snapshots every retained job in submission order.
func (s *Service) Jobs() []api.JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]api.JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation: a queued job is finished as canceled
// without running; a running job has its context canceled and finishes as
// canceled once in-flight points drain. Terminal jobs are left untouched.
func (s *Service) Cancel(id string) (api.JobStatus, error) {
	j, err := s.Job(id)
	if err != nil {
		return api.JobStatus{}, err
	}
	j.mu.Lock()
	j.cancelReq = true
	cancel := j.cancelRun
	queued := j.state == api.StateQueued
	j.mu.Unlock()
	if queued {
		// Finish it in place only if it is still queued; if an executor
		// dequeued it in the meantime, that executor saw cancelReq (set
		// above, under the same lock it transitions through) and finishes
		// the job as canceled itself without running it.
		s.finishJob(j, nil, context.Canceled, true)
	} else if cancel != nil {
		cancel()
	}
	return j.Status(), nil
}

// Stats snapshots the service counters — the same values /metrics exports.
func (s *Service) Stats() api.ServiceStats {
	ss := s.store.Stats()
	cs := imp.GetCheckpointStats()
	quotaRej := s.mQuotaRej.Total()
	queueRej := s.mQueueRej.Value()
	s.mu.Lock()
	defer s.mu.Unlock()
	return api.ServiceStats{
		Submitted: uint64(s.nextID), Executed: s.executed,
		Deduped: s.deduped, Cached: s.cached,
		StoreHits: ss.MemHits + ss.DiskHits, StorePuts: ss.Puts, StoreLen: ss.Entries,
		StoreDiskHits: ss.DiskHits, StoreDiskPuts: ss.DiskPuts, StoreCorrupt: ss.Corrupt,
		QueuedInteractive:  len(s.qlanes[api.LaneInteractive]),
		QueuedBulk:         len(s.qlanes[api.LaneBulk]),
		RunningInteractive: s.running[api.LaneInteractive],
		RunningBulk:        s.running[api.LaneBulk],
		QuotaRejections:    quotaRej,
		QueueRejections:    queueRej,
		CheckpointHits:     cs.Hits,
		CheckpointMisses:   cs.Misses,
		PrefixCyclesSaved:  cs.PrefixCyclesSaved,
	}
}

// StoredResult reads the result store directly by content key — the peer
// side of the replication surface (GET /v1/results/{key}). A malformed key
// is simply a miss.
func (s *Service) StoredResult(key string) ([]byte, bool) {
	if !jobkey.ValidKey(key) {
		return nil, false
	}
	return s.store.Get(key, s.cfg.ResultsDir)
}

// StoredKeys lists every key the result store can currently answer, sorted
// (GET /v1/results). It is the inventory side of the replication surface:
// the improuter front-end enumerates it during ring membership changes to
// decide which results a joining or leaving backend must receive.
func (s *Service) StoredKeys() []string {
	// Files named like castore entries but not like result keys are foreign.
	return slices.DeleteFunc(s.store.Keys(s.cfg.ResultsDir), func(k string) bool { return !jobkey.ValidKey(k) })
}

// StoreResult publishes a finished result under key without running
// anything — the replica-write side of the replication surface
// (PUT /v1/results/{key}). Results are content-addressed and byte-identical
// across the fleet, so an overwrite is always idempotent; the caller hands
// over ownership of data. Only the key's shape is validated: the bytes are
// trusted to be the canonical result for it, which is why the endpoint is
// internal (router-to-backend), not public.
func (s *Service) StoreResult(key string, data []byte) error {
	if !jobkey.ValidKey(key) {
		return fmt.Errorf("service: malformed result key %q", key)
	}
	s.store.Put(key, s.cfg.ResultsDir, data)
	return nil
}

// Close stops accepting work and waits for the queue to drain. If ctx ends
// first, in-flight jobs are canceled and Close waits for them to unwind.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.qcond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelBase()
		<-drained
	}
	s.cancelBase()
	return err
}

func (s *Service) executor() {
	defer s.wg.Done()
	for {
		j := s.dequeue()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// bulkShare is the anti-starvation ratio: every bulkShare-th dequeue takes
// the bulk lane even when interactive work is waiting, so a sustained
// interactive stream cannot park bulk jobs forever. All other dequeues
// prefer interactive.
const bulkShare = 4

// dequeue blocks until a job is available or the service is closed and
// drained; nil means "no more work ever" (executor exits). After Close the
// remaining queued jobs are still dequeued and run — Close waits for the
// backlog to drain, same contract as the old channel-based queue.
func (s *Service) dequeue() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		qi, qb := s.qlanes[api.LaneInteractive], s.qlanes[api.LaneBulk]
		if len(qi)+len(qb) > 0 {
			lane := api.LaneInteractive
			if len(qi) == 0 || (len(qb) > 0 && s.dequeues%bulkShare == bulkShare-1) {
				lane = api.LaneBulk
			}
			q := s.qlanes[lane]
			j := q[0]
			q[0] = nil // drop the queue's reference; the slice arrays are reused
			s.qlanes[lane] = q[1:]
			s.dequeues++
			return j
		}
		if s.closed {
			return nil
		}
		s.qcond.Wait()
	}
}

// runJob executes one dequeued job end to end.
func (s *Service) runJob(j *Job) {
	j.mu.Lock()
	if j.state != api.StateQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	if j.cancelReq {
		// Cancel won the race for the queued job but has not finished it
		// yet; do it here rather than starting work that is already dead.
		j.mu.Unlock()
		s.finishJob(j, nil, context.Canceled, false)
		return
	}
	timeout := s.cfg.JobTimeout
	if t := time.Duration(j.spec.TimeoutSec) * time.Second; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	j.cancelRun = cancel
	j.state = api.StateRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.submitted)
	j.cond.Broadcast()
	j.mu.Unlock()
	defer cancel()

	s.mQueueWait.With(string(j.lane)).Observe(queueWait.Seconds())
	s.mu.Lock()
	s.running[j.lane]++
	s.executed++
	s.mu.Unlock()

	start := time.Now()
	data, err := s.execute(ctx, j)
	dur := time.Since(start).Seconds()
	s.mJobDur.With(string(j.lane)).Observe(dur)

	s.mu.Lock()
	s.running[j.lane]--
	if s.ewmaJobSec == 0 {
		s.ewmaJobSec = dur
	} else {
		s.ewmaJobSec = 0.8*s.ewmaJobSec + 0.2*dur
	}
	s.mu.Unlock()
	s.finishJob(j, data, err, false)
}

// execute runs the job's work through the library entry points, tapping
// progress into the job's event log and sharing the service-wide gate.
func (s *Service) execute(ctx context.Context, j *Job) ([]byte, error) {
	spec := j.spec
	onProgress := func(e imp.ProgressEvent) {
		ev := api.Event{
			Workload: e.Workload, System: e.System.String(),
			Point: e.Point, Total: e.Total, Done: e.Done,
			Cycles: e.Cycles, ElapsedMS: e.Elapsed.Milliseconds(),
		}
		if e.Err != nil {
			ev.Error = e.Err.Error()
		}
		j.addEvent(ev)
	}
	if len(spec.Sweep) > 0 {
		results, err := imp.RunSweep(ctx, spec.Sweep, imp.SweepOptions{
			RunOptions: imp.RunOptions{
				Parallelism: spec.Parallelism, OnProgress: onProgress,
				Gate: s.gate, Checkpoints: s.cfg.Checkpoints,
			},
		})
		if err != nil {
			return nil, err
		}
		return marshalSweepResult(results)
	}
	tbl, err := imp.Experiments.Run(spec.Experiment, imp.ExpOptions{
		Cores: spec.Cores, Scale: spec.Scale, Workloads: spec.Workloads,
		RunOptions: imp.RunOptions{
			Seed: spec.Seed, Parallelism: spec.Parallelism,
			Context: ctx, OnProgress: onProgress,
			Gate: s.gate, Checkpoints: s.cfg.Checkpoints,
		},
	})
	if err != nil {
		return nil, err
	}
	return tbl.JSON()
}

// finishJob stores the result, then records the terminal state and appends
// the terminal event, and retires the singleflight entry for
// failed/canceled jobs so a resubmission can retry. The store put comes
// first so that "done" means stored: a waiter woken by the terminal event,
// a peer polling the job's state or a restart right after it must find the
// result in the store. Only the executor that ran the job finishes it with
// a result, so the put cannot race another finisher. onlyIfQueued guards
// the cancel-while-queued path: if an executor already moved the job to
// running, the transition is abandoned (the executor owns the job's fate —
// it saw cancelReq and finishes it as canceled itself). Lock order: j.mu
// and s.mu are never held together — state first, index second.
func (s *Service) finishJob(j *Job, data []byte, err error, onlyIfQueued bool) {
	if err == nil {
		s.store.Put(j.key, s.cfg.ResultsDir, data)
	}
	j.mu.Lock()
	if j.state.Terminal() || (onlyIfQueued && j.state != api.StateQueued) {
		j.mu.Unlock()
		return
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = api.StateDone
		j.result = data
	case j.cancelReq || errors.Is(err, context.Canceled):
		j.state = api.StateCanceled
		j.errMsg = err.Error()
	default:
		j.state = api.StateFailed
		j.errMsg = err.Error()
	}
	term := api.Event{Seq: len(j.events), State: j.state, Done: j.done, Total: j.total, Error: j.errMsg}
	j.events = append(j.events, term)
	state := j.state
	j.cond.Broadcast()
	j.mu.Unlock()

	if state == api.StateDone {
		return
	}
	s.mu.Lock()
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	s.mu.Unlock()
}

// marshalSweepResult is the canonical sweep result encoding — indented JSON
// with Go's stable field order, like Table.JSON — so equal sweeps produce
// equal bytes. The e2e tests pin it byte-for-byte against direct
// imp.RunSweep output marshaled the same way.
func marshalSweepResult(results []*imp.Result) ([]byte, error) {
	return json.MarshalIndent(api.SweepResult{Results: results}, "", "  ")
}

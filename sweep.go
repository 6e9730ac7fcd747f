package imp

import (
	"context"
	"errors"
	"fmt"

	"github.com/impsim/imp/internal/harness"
)

// SweepOptions configure RunSweep. All knobs live in the embedded
// RunOptions, shared with ExpOptions.
type SweepOptions struct {
	RunOptions
}

// Gate bounds concurrent simulations across independent sweeps. Obtain one
// with NewGate and share it via SweepOptions.Gate / ExpOptions.Gate.
type Gate interface {
	// Acquire blocks until a slot is free or ctx is done.
	Acquire(ctx context.Context) error
	// Release frees the slot taken by a successful Acquire.
	Release()
}

// NewGate returns a Gate admitting at most n concurrent simulations
// (n < 1 is treated as 1).
func NewGate(n int) Gate { return harness.NewGate(n) }

// RunSweep simulates every config concurrently with bounded parallelism and
// returns one result per config, in config order — the results are identical
// to running each config serially through Run. Traces are built per point
// (configs in a sweep usually differ in workload, cores or scale); use
// Experiments for the paper's trace-sharing sweeps. With opt.Checkpoints
// enabled, configs whose effective simulation is identical share one replay
// through the checkpoint cache instead of cold-starting each.
func RunSweep(ctx context.Context, cfgs []Config, opt SweepOptions) ([]*Result, error) {
	pts := make([]simPoint, len(cfgs))
	for i, cfg := range cfgs {
		cfg.applyDefaults()
		if cfg.Seed == 0 && opt.Seed != 0 {
			cfg.Seed = ExpSeed(opt.Seed, cfg.Workload)
		}
		pts[i] = newSimPoint(sweepMeta{workload: cfg.Workload, system: cfg.System}, cfg, opt.Checkpoints)
	}
	return sweepSim(opt.ctx(ctx), opt.RunOptions, pts, nil)
}

// ExpSeed returns the trace seed an experiment derives for workload from a
// base seed (ExpOptions.Seed). Pass it as Config.Seed to reproduce a single
// experiment point through Run or impsim — a raw base seed would build
// different inputs. A zero base returns 0 (the paper's default inputs).
func ExpSeed(base int64, workload string) int64 {
	return harness.SeedFor(base, workload)
}

// sweepMeta labels one sweep point for events and error messages.
type sweepMeta struct {
	experiment string
	workload   string
	system     System
}

// simPoint is one fully-resolved sweep point: event metadata, the leaf
// simulation closure, and (with checkpointing on) the prefix-sharing key
// and warm-up closure the harness runs once per group.
type simPoint struct {
	meta      sweepMeta
	prefixKey string
	runPrefix func(ctx context.Context) error
	run       func(ctx context.Context) (*Result, error)
}

// newSimPoint resolves cfg (defaults applied) into a sweep point. With
// checkpointing on, its key — derived once — groups it with the sweep's other
// points of the same identity: the harness runs ensureCheckpoint once per
// group, then every leaf. A config that cannot be keyed is not grouped; its
// leaf runs cold and surfaces the configuration error itself.
func newSimPoint(meta sweepMeta, cfg Config, pol CheckpointPolicy) simPoint {
	pt := simPoint{meta: meta}
	if pol.Enabled {
		pt.prefixKey, _ = checkpointKey(cfg)
	}
	key := pt.prefixKey
	pt.run = func(ctx context.Context) (*Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return runCfg(cfg, key, pol.Dir)
	}
	if key != "" {
		pt.runPrefix = func(ctx context.Context) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return ensureCheckpoint(cfg, key, pol.Dir)
		}
	}
	return pt
}

// sweepSim is the one adapter between simulation sweeps and the harness:
// it wraps per-point sim closures into labeled harness points, fans them out
// with fail-fast bounded parallelism, translates harness events into
// ProgressEvents, and returns results in point order.
func sweepSim(ctx context.Context, opt RunOptions, pts []simPoint, progress func(string)) ([]*Result, error) {
	hpts := make([]harness.Point[*Result], len(pts))
	for i := range pts {
		hpts[i] = harness.Point[*Result]{
			Label:     fmt.Sprintf("%s/%s", pts[i].meta.workload, pts[i].meta.system),
			PrefixKey: pts[i].prefixKey,
			RunPrefix: pts[i].runPrefix,
			Run:       pts[i].run,
		}
	}
	var onEvent func(harness.Event, *Result)
	if opt.OnProgress != nil || progress != nil {
		onEvent = func(e harness.Event, res *Result) {
			// Points skipped by fail-fast cancellation never simulated
			// anything; reporting each would bury the real failure.
			if errors.Is(e.Err, context.Canceled) || errors.Is(e.Err, context.DeadlineExceeded) {
				return
			}
			m := pts[e.Index].meta
			var cycles int64
			if res != nil {
				cycles = res.Cycles
			}
			if opt.OnProgress != nil {
				opt.OnProgress(ProgressEvent{
					Experiment: m.experiment, Workload: m.workload, System: m.system,
					Point: e.Index, Total: e.Total, Done: e.Done,
					Cycles: cycles, Elapsed: e.Elapsed, Err: e.Err,
				})
			}
			if progress != nil && e.Err == nil {
				progress(fmt.Sprintf("%s/%s: %d cycles", m.workload, m.system, cycles))
			}
		}
	}
	return harness.Sweep(ctx, hpts,
		harness.Options{Workers: opt.Parallelism, FailFast: true, Gate: opt.Gate}, onEvent)
}

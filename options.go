package imp

import "context"

// RunOptions are the execution knobs shared by every sweep entry point.
// SweepOptions and ExpOptions embed it, so the fields read the same from
// either (`opt.Parallelism`, `opt.Gate`, ...) and a service configures one
// struct regardless of whether a job is an ad-hoc sweep or a registered
// experiment. Execution knobs never change results: output is byte-identical
// at any Parallelism, with any Gate, and with checkpointing on or off.
type RunOptions struct {
	// Parallelism bounds concurrent simulations (<=0: GOMAXPROCS). Output
	// is byte-identical at any setting; 1 forces a serial sweep.
	Parallelism int
	// Context cancels an in-flight run when done (nil: Background).
	// Cancellation is cooperative at simulation-point granularity: points
	// already simulating run to completion; unstarted points are skipped.
	// RunSweep's explicit ctx argument takes precedence when non-nil.
	Context context.Context
	// OnProgress, when non-nil, receives one structured event per completed
	// simulation point (Experiment is empty for ad-hoc sweeps). It is never
	// called concurrently with itself, but events arrive in completion
	// order, which depends on scheduling.
	OnProgress func(ProgressEvent)
	// Gate, when non-nil, additionally bounds in-flight simulations across
	// every sweep sharing the gate (see NewGate). A service running many
	// sweeps concurrently uses one gate to cap total simulation load;
	// results are unaffected — gating only changes scheduling.
	Gate Gate
	// Seed perturbs input generation. Each workload's trace seed is derived
	// deterministically from Seed and the workload name (see ExpSeed), so
	// results are reproducible at any parallelism. 0 keeps the paper's
	// default inputs. In RunSweep it only applies to configs whose own
	// Config.Seed is zero.
	Seed int64
	// Checkpoints controls checkpointed sweep execution: when enabled,
	// points sharing an identical effective simulation (same trace and same
	// effective system — late-binding IMP prefetch parameters are excluded
	// from the identity when the system does not instantiate the IMP
	// prefetcher) run the shared replay once, store its finished metrics,
	// and answer the remaining points — in this sweep and in later ones —
	// from them instead of simulating each one. Checkpoints are
	// content-addressed and cached across runs (internal/ckptcache);
	// results are byte-identical either way.
	Checkpoints CheckpointPolicy
}

// CheckpointPolicy configures checkpointed sweep execution (off by default).
// A checkpoint is a finished simulation's metrics, some 150 bytes: a point
// that finds one needs no trace and no simulator, only the lookup.
type CheckpointPolicy struct {
	// Enabled turns checkpointed execution on.
	Enabled bool
	// Dir overrides the checkpoint cache directory. Empty uses the
	// IMP_CKPT_CACHE environment variable or the user cache dir; "off"
	// (or "0") keeps checkpoints in memory only.
	Dir string
}

// ctx resolves the effective context: the explicit argument wins, then the
// option field, then Background.
func (o RunOptions) ctx(explicit context.Context) context.Context {
	if explicit != nil {
		return explicit
	}
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

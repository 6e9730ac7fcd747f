// Command probe is the benchmark's layer probe. The driver (bench) runs it
// as a child in a traced run; it is the only part of the benchmark that
// imports the simulator's and the service's internal packages, so those can
// be merged, split or deleted without touching how the end-to-end numbers
// are taken.
//
// It times public functions of each layer, driven by the record streams of
// the replay-hot traces, and reads each layer's counts from the replays it
// makes, so every count repeats exactly for one seed. It also replays the
// replay-hot op list layer by layer (sim.build, sim.replay, sim.collect
// spans) and reports each op's simulated time, which the driver checks
// against the one it got from imp.RunProgram. Nothing it reports depends on
// the workload the traced run is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/impsim/imp/bench/internal/meter"
)

// config sizes a probe run. main runs the full size, the size of the
// replay-hot traces; the tests shrink it to the golden-check size.
type config struct {
	seed  int64
	cores int
	scale float64
	tmp   string // scratch directory for the disk layers
	calls int    // least number of calls a per-call timing is taken over
	reps  int    // timings are the median of this many
}

func main() {
	c := config{cores: 16, scale: meter.ReplayScale, calls: 1 << 20, reps: 3}
	flag.Int64Var(&c.seed, "seed", 1, "input seed, as given to the driver")
	flag.StringVar(&c.tmp, "tmp", "", "scratch directory (required)")
	flag.Parse()
	if c.tmp == "" {
		fmt.Fprintln(os.Stderr, "probe: -tmp is required")
		os.Exit(2)
	}
	out, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// run makes every probe and the layered replay.
func run(c config) (*meter.ProbeOutput, error) {
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return nil, err
	}
	p := &probe{config: c, vals: map[string]float64{}}
	for _, step := range []func() error{
		p.workload, p.trace, p.progcache, p.sim, p.stream, p.cache, p.coherence, p.nocDRAM,
		p.prefetchers, p.cpuMemSnap, p.ckptcache, p.harness, p.service,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	out := &meter.ProbeOutput{Metrics: p.vals}
	var err error
	out.Spans, out.ReplayCycles, err = p.layeredReplay()
	return out, err
}

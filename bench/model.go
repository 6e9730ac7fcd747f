package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"

	"github.com/impsim/imp"
)

// cell is the simulated outcome of one (kernel, system) simulation inside an
// op, as far as the op's public result exposes it: a direct imp.Result gives
// everything, a sweep result over the wire everything but the access count,
// a progress event only the cycles.
type cell struct {
	point     int // position in the op's sweep; orders cells that finish concurrently
	kernel    string
	system    string
	cycles    int64
	accesses  uint64
	flitHops  uint64
	dramBytes uint64
	// Where accesses is unknown, the trace the cell replayed, so its access
	// count can be read from the trace cache after the window.
	cores int
	scale float64
	seed  int64
}

// model collects the simulated side of the first pass over a workload's op
// list. Every number it reports is simulated time or a simulated count, so
// for one seed it repeats exactly; a change meant only to make the simulator
// faster must leave all of them identical.
type model struct {
	mu      sync.Mutex
	cells   map[int][]cell
	results map[int]uint32 // crc32 of each slot's output bytes
}

func newModel() *model {
	return &model{cells: map[int][]cell{}, results: map[int]uint32{}}
}

func (m *model) addCell(slot int, c cell) {
	m.mu.Lock()
	m.cells[slot] = append(m.cells[slot], c)
	m.mu.Unlock()
}

func (m *model) addResult(slot int, data []byte) {
	m.mu.Lock()
	m.results[slot] = crc32.ChecksumIEEE(data)
	m.mu.Unlock()
}

// metrics folds the pass into the six model.* values, visiting slots and
// cells in a fixed order so float sums repeat too.
func (m *model) metrics() (map[string]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	slots := make([]int, 0, len(m.results))
	for s := range m.results {
		slots = append(slots, s)
	}
	sort.Ints(slots)

	var accesses, hops, dram uint64
	var cycles int64
	crc := crc32.NewIEEE()
	known := map[string]uint64{}
	// A kernel's speed-up pairs the first base cell and the first imp cell
	// that replayed the same trace, wherever in the pass they are (fig13
	// also has out-of-order cells of both, later in its sweep).
	first := map[string]int64{}
	var traces []string
	for _, s := range slots {
		binary.Write(crc, binary.BigEndian, m.results[s])
		cells := m.cells[s]
		sort.Slice(cells, func(i, j int) bool { return cells[i].point < cells[j].point })
		for _, c := range cells {
			n := c.accesses
			if n == 0 {
				var err error
				if n, err = traceAccesses(known, c); err != nil {
					return nil, err
				}
			}
			accesses += n
			cycles += c.cycles
			hops += c.flitHops
			dram += c.dramBytes
			tr := fmt.Sprintf("%s/%d", c.kernel, c.seed)
			if _, seen := first[c.system+"/"+tr]; !seen {
				first[c.system+"/"+tr] = c.cycles
				if c.system == "base" {
					traces = append(traces, tr)
				}
			}
		}
	}
	var logSum float64
	var pairs int
	for _, tr := range traces {
		if improved := first["imp/"+tr]; improved > 0 {
			logSum += math.Log(float64(first["base/"+tr]) / float64(improved))
			pairs++
		}
	}
	geomean := 0.0
	if pairs > 0 {
		geomean = math.Exp(logSum / float64(pairs))
	}
	ops := max(len(slots), 1)
	return map[string]float64{
		"model.accesses_per_op":     float64(accesses) / float64(ops),
		"model.cycles_sum":          float64(cycles),
		"model.imp_speedup_geomean": geomean,
		"model.noc_flit_hops":       float64(hops),
		"model.dram_bytes":          float64(dram),
		"model.result_crc32":        float64(crc.Sum32()),
	}, nil
}

// traceAccesses reads a cell's demand-access count from its trace, which the
// op already built, so this is a trace-cache hit.
func traceAccesses(known map[string]uint64, c cell) (uint64, error) {
	swpref := c.system == imp.SystemSWPrefetch.String()
	key := fmt.Sprintf("%s/%d/%g/%d/%t", c.kernel, c.cores, c.scale, c.seed, swpref)
	if n, ok := known[key]; ok {
		return n, nil
	}
	p, err := imp.BuildProgram(c.kernel, c.cores, c.scale, swpref, c.seed)
	if err != nil {
		return 0, fmt.Errorf("reading the access count of %s: %w", key, err)
	}
	known[key] = p.Accesses()
	return known[key], nil
}

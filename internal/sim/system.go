package sim

import (
	"fmt"

	"github.com/impsim/imp/internal/cache"
	"github.com/impsim/imp/internal/coherence"
	"github.com/impsim/imp/internal/core"
	"github.com/impsim/imp/internal/cpu"
	"github.com/impsim/imp/internal/dram"
	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/noc"
	"github.com/impsim/imp/internal/prefetch"
	"github.com/impsim/imp/internal/trace"
)

// batchRecords bounds how many records one heap pop may process; misses and
// barriers yield earlier. Hits are core-local, so short batches only cost
// heap churn, not accuracy.
const batchRecords = 64

type tile struct {
	id int
	l1 *cache.Cache
	pf prefetch.Prefetcher
	//imp:nosnap alias of pf set at build; the IMP's state snapshots through pf
	imp  *core.IMP // non-nil when pf is IMP
	pipe *cpu.Pipeline
	//imp:nosnap restore reattaches a fresh stream and repositions it to pos
	stream trace.RecordStream
	//imp:nosnap stateless region-cached read tap, rebuilt at construction
	memr *mem.CachedReader // per-tile value taps (region-cached reads)
	time int64
	pos  int // records consumed from stream (stream cursor position)
	//imp:nosnap scratch inside one step call; consume zeroes it before any yield
	winOff  int // records of the current window processed, incl. the current one
	instr   uint64
	done    bool
	waiting bool // parked at a barrier

	// inflight holds prefetches whose data has not yet arrived. Lines fill
	// the L1 only at completion (an MSHR, not an early insert), so
	// prefetches cannot evict hot lines before their data exists.
	inflight  []inflightPF
	arrival   int64 // barrier arrival time
	perfAhead int   // perfect-prefetch lookahead cursor (absolute records)
}

// inflightPF is one outstanding prefetch.
type inflightPF struct {
	line     uint64
	complete int64
	mask     cache.SectorMask
	state    cache.State
}

// drainInflight moves completed prefetches into the L1.
func (s *system) drainInflight(t *tile, now int64) {
	kept := t.inflight[:0]
	for _, pf := range t.inflight {
		if pf.complete > now {
			kept = append(kept, pf)
			continue
		}
		ev := t.l1.Insert(pf.line, pf.mask, pf.state, pf.complete, true)
		s.handleL1Eviction(t, ev)
	}
	t.inflight = kept
}

// takeInflight removes and returns the in-flight prefetch covering
// (line, mask), if any. A prefetch of the right line but with too few
// sectors is left in place (the later drain merges it).
func (t *tile) takeInflight(line uint64, mask cache.SectorMask) (inflightPF, bool) {
	for i, pf := range t.inflight {
		if pf.line == line && pf.mask&mask == mask {
			t.inflight = append(t.inflight[:i], t.inflight[i+1:]...)
			return pf, true
		}
	}
	return inflightPF{}, false
}

// coversInflight reports whether an in-flight prefetch already covers
// (line, mask) and returns its completion time.
func (t *tile) coversInflight(line uint64, mask cache.SectorMask) (int64, bool) {
	for _, pf := range t.inflight {
		if pf.line == line && pf.mask&mask == mask {
			return pf.complete, true
		}
	}
	return 0, false
}

type system struct {
	cfg Config
	//imp:nosnap the trace is not embedded in snapshots; Restore reattaches an equivalent Source
	src trace.Source
	//imp:nosnap derived from the trace's region table at build
	space *mem.Space
	//imp:nosnap derived from the source's SpinBarrierWait at build
	spin bool
	// valueTap is set when the prefetcher consumes loaded values (IMP's
	// index taps); the stream and GHB prefetchers never read Access.Value,
	// so the memory-image read is skipped for them.
	//imp:nosnap derived from the prefetcher kind at build
	valueTap bool
	mesh     *noc.Mesh
	mem      dram.Model
	//imp:nosnap derived from cfg at build
	mcOf  []int // mc index -> tile id
	l2    []*cache.Cache
	dir   []*coherence.Directory
	tiles []*tile
	h     []*tile // typed min-heap on (time, id)
	met   Metrics

	// Per-access scratch buffers, reused across the whole run: the tick
	// loop is single-threaded per system, and per-access slice allocations
	// dominated the simulator's profile before these existed.
	//imp:nosnap scratch, dead outside one access
	reqScratch []prefetch.Request
	//imp:nosnap scratch, dead outside one access
	complScratch []int64
	//imp:nosnap scratch, dead outside one broadcast: the tiles found holding the line
	holderScratch []int

	//imp:nosnap Snapshot refuses a system with a pending stream error
	streamErr error // first record-stream decode failure

	// started records that the scheduling heap has been seeded; resumed
	// runs (Finish after RunUntil, restored snapshots) must keep the heap
	// as-is rather than re-seed it.
	started bool

	// barrier state
	arrivedCount int
	maxArrival   int64
}

// Run replays prog on the system described by cfg and returns the metrics.
// The simulated machine's storage is surrendered for reuse by later runs
// before Run returns; the returned Metrics is an independent copy that no
// later run can touch.
func Run(prog *trace.Program, cfg Config) (*Metrics, error) {
	return RunSource(prog.Source(), cfg)
}

// RunSource replays a trace source on the system described by cfg. With a
// streaming source (trace.FileSource) the per-core records are decoded on
// the fly inside a bounded lookahead window, so replay memory does not
// scale with trace length. Storage and the returned Metrics are as for Run.
func RunSource(src trace.Source, cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src.Cores() != cfg.Cores {
		return nil, fmt.Errorf("sim: program traced for %d cores, config has %d", src.Cores(), cfg.Cores)
	}
	if err := src.Validate(); err != nil {
		return nil, err
	}
	s := build(src, cfg, false)
	defer s.release()
	s.run()
	if s.streamErr != nil {
		return nil, fmt.Errorf("sim: record stream: %w", s.streamErr)
	}
	return s.collect(), nil
}

// build assembles the machine. Its large arrays — cache frames, directory
// tables, NoC link rings, DRAM bandwidth rings — are taken from the free
// lists release returns them to (each layer keeps its own, keyed by size),
// and cleaned as they are taken. With restoring set the caller will overlay
// a snapshot at once, which overwrites those arrays in full, so they are
// taken as they are.
func build(src trace.Source, cfg Config, restoring bool) *system {
	n := cfg.Cores
	newCache := cache.New
	if restoring {
		newCache = cache.NewForRestore
	}
	s := &system{
		cfg:   cfg,
		src:   src,
		space: src.Memory(),
		spin:  src.SpinBarrierWait(),
		mesh:  cfg.buildNoC(restoring),
		mem:   cfg.buildDRAM(restoring),
		l2:    make([]*cache.Cache, n),
		dir:   make([]*coherence.Directory, n),
		tiles: make([]*tile, 0, n),
		h:     make([]*tile, 0, n),
	}
	s.mcOf = noc.DiamondMCTiles(s.mesh.Config().Dim, cfg.numMCs())
	l2cfg := cache.Config{SizeBytes: cfg.l2SliceBytes(), Ways: cfg.L2Ways, SectorBytes: cfg.l2SectorBytes()}
	l1cfg := cache.Config{SizeBytes: cfg.L1SizeBytes, Ways: cfg.L1Ways, SectorBytes: cfg.l1SectorBytes()}
	for i := 0; i < n; i++ {
		s.l2[i] = newCache(l2cfg)
		s.dir[i] = coherence.New(ackwiseK, n)
		t := &tile{
			id:       i,
			l1:       newCache(l1cfg),
			pipe:     cpu.New(cfg.CoreModel, cfg.OoOWindow),
			stream:   src.Open(i),
			memr:     mem.NewCachedReader(s.space),
			inflight: make([]inflightPF, 0, cfg.MaxOutstandingPrefetches),
		}
		switch cfg.Prefetcher {
		case PrefetchStream:
			t.pf = prefetch.NewStream(prefetch.DefaultStreamConfig())
		case PrefetchGHB:
			// The paper attaches GHB on top of the stream prefetcher; model
			// both by chaining their requests.
			t.pf = &chainedPrefetcher{
				a: prefetch.NewStream(prefetch.DefaultStreamConfig()),
				b: prefetch.NewGHB(prefetch.DefaultGHBConfig()),
			}
		case PrefetchIMP:
			p := cfg.IMP
			p.Partial = cfg.Partial != PartialOff
			t.imp = core.New(p, mem.NewCachedReader(s.space))
			t.pf = t.imp
			s.valueTap = true
		}
		s.tiles = append(s.tiles, t)
	}
	return s
}

// release surrenders the machine's large arrays to the free lists for a
// later build to take. The system must not be stepped afterwards; tile
// clocks and the mesh and DRAM counters stay readable.
func (s *system) release() {
	s.mesh.Release()
	s.mem.Release()
	for i := range s.l2 {
		s.l2[i].Release()
		s.dir[i].Release()
	}
	for _, t := range s.tiles {
		t.l1.Release()
	}
}

// chainedPrefetcher merges the requests of two prefetchers. Both append
// into the shared request slice, so Parent indices (absolute positions in
// the full slice per the Prefetcher contract) need no rebasing.
type chainedPrefetcher struct {
	a, b prefetch.Prefetcher
}

func (c *chainedPrefetcher) Name() string { return c.a.Name() + "+" + c.b.Name() }
func (c *chainedPrefetcher) Observe(acc prefetch.Access, reqs []prefetch.Request) []prefetch.Request {
	reqs = c.a.Observe(acc, reqs)
	return c.b.Observe(acc, reqs)
}

// Typed min-heap on (time, id). The standard container/heap would box every
// push and pop through interface{} method calls on the hot loop; the order
// produced is identical because (time, id) is a strict total order.

func (s *system) heapLess(a, b *tile) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.id < b.id
}

func (s *system) heapPush(t *tile) {
	s.h = append(s.h, t)
	i := len(s.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(s.h[i], s.h[parent]) {
			break
		}
		s.h[i], s.h[parent] = s.h[parent], s.h[i]
		i = parent
	}
}

func (s *system) heapPop() *tile {
	h := s.h
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	s.h = h[:n]
	h = s.h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && s.heapLess(h[r], h[l]) {
			least = r
		}
		if !s.heapLess(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

func (s *system) run() {
	s.seedHeap()
	for len(s.h) > 0 {
		t := s.heapPop()
		s.step(t)
		if !t.done && !t.waiting {
			s.heapPush(t)
		}
	}
}

// runUntil executes the run loop until the next tile to be stepped has
// consumed at least limit records, then stops before stepping it. The stop
// check peeks at the heap root — the exact tile heapPop would return — and
// leaves the heap untouched, so the steps executed are a strict prefix of
// run's step sequence and resuming (run after runUntil, or a restored
// snapshot) continues byte-identically. The heap array itself is preserved,
// never rebuilt: entries go stale when a tile's clock advances while a
// duplicate entry is still queued (barrier release re-pushes the last
// arriver), and pop order — hence simulated contention — depends on the
// exact layout.
func (s *system) runUntil(limit int) {
	s.seedHeap()
	for len(s.h) > 0 {
		if s.h[0].pos >= limit {
			return
		}
		t := s.heapPop()
		s.step(t)
		if !t.done && !t.waiting {
			s.heapPush(t)
		}
	}
}

// seedHeap pushes every tile onto the scheduling heap, once per system
// lifetime; resumed runs keep the existing heap.
func (s *system) seedHeap() {
	if s.started {
		return
	}
	s.started = true
	for _, t := range s.tiles {
		s.heapPush(t)
	}
}

// step advances one tile until a miss, barrier, or batch limit. Records are
// pulled in windows of batchRecords so the stream pays one interface call
// per batch, not per record.
func (s *system) step(t *tile) {
	win := t.stream.Window(batchRecords)
	if len(win) == 0 {
		s.finishTile(t)
		return
	}
	for i, r := range win {
		t.winOff = i + 1
		if r.Gap > 0 {
			t.time += int64(r.Gap)
			t.instr += uint64(r.Gap)
		}
		switch {
		case r.IsGapOnly():
			continue
		case r.IsBarrier():
			t.consume(i + 1)
			s.arriveBarrier(t)
			return
		case r.IsSWPrefetch():
			t.instr++
			t.time++
			if !s.cfg.Ideal {
				s.issuePrefetch(t, t.time, prefetch.Request{Addr: r.Addr, Parent: -1})
			}
			continue
		default:
			if s.demandAccess(t, r) {
				t.consume(i + 1)
				return // shared-resource activity: re-enter in global order
			}
		}
	}
	t.consume(len(win))
	if len(win) < batchRecords {
		// Window runs short only at the end of the stream: retire the tile
		// now so its drained time is visible to coherence traffic at once.
		s.finishTile(t)
	}
}

// consume advances the record stream past n processed records.
func (t *tile) consume(n int) {
	t.stream.Advance(n)
	t.pos += n
	t.winOff = 0
}

// finishTile drains the pipeline and retires a tile whose trace ended.
func (s *system) finishTile(t *tile) {
	if err := t.stream.Err(); err != nil && s.streamErr == nil {
		s.streamErr = fmt.Errorf("core %d: %w", t.id, err)
	}
	t.time = t.pipe.Drain(t.time)
	t.done = true
}

// demandAccess plays one load/store; it returns true when the access missed
// (touching shared resources).
func (s *system) demandAccess(t *tile, r trace.Record) bool {
	t.instr++
	now := t.pipe.Gate(t.time, t.instr, r.DependsOnPrev())
	ks := s.met.kind(r.Kind())
	ks.Accesses++

	if s.cfg.Ideal {
		s.finish(t, r, now, now+s.cfg.L1HitLatency)
		return false
	}
	if s.cfg.PerfectPrefetch {
		s.perfectLookahead(t, now)
	}

	s.drainInflight(t, now)
	lineID := r.Addr.LineID()
	mask := t.l1.MaskFor(r.Addr, int(r.Size))
	res, ln := t.l1.Lookup(lineID, mask)

	var complete int64
	missed := false
	switch res {
	case cache.Hit:
		complete = now + s.cfg.L1HitLatency
		if ln.FillTime > now {
			// The fill is still in flight (OoO slid past the miss).
			complete = ln.FillTime + s.cfg.L1HitLatency
		}
		first := cache.MarkDemandUse(ln, uint64(r.Addr.Offset()), uint64(r.Size))
		if first {
			s.met.PrefetchesUsed++
			ks.CoveredMisses++
		}
		if r.IsStore() && ln.State != cache.Modified {
			// Upgrade: the data is local but write permission is not.
			complete = s.upgrade(t, complete, lineID)
			ln.State = cache.Modified
			missed = true
		}
	default: // Miss or SectorMiss
		if pf, ok := t.takeInflight(lineID, mask); ok {
			// A prefetch for this line is in flight: stall only for the
			// residual latency (late prefetch, §6.1.1).
			complete = pf.complete + s.cfg.L1HitLatency
			ev := t.l1.Insert(pf.line, pf.mask, pf.state, pf.complete, true)
			s.handleL1Eviction(t, ev)
			if l := t.l1.Probe(lineID); l != nil {
				cache.MarkDemandUse(l, uint64(r.Addr.Offset()), uint64(r.Size))
			}
			s.met.PrefetchesUsed++
			ks.LateCovered++
			missed = true
			if r.IsStore() && pf.state != cache.Modified {
				complete = s.upgrade(t, complete, lineID)
				if l := t.l1.Probe(lineID); l != nil {
					l.State = cache.Modified
				}
			}
		} else {
			missed = true
			ks.Misses++
			complete = s.fetchForDemand(t, now, r, mask, res, ln)
		}
	}

	// Prefetches issue when the hardware observes the access, not when the
	// data returns.
	s.observePrefetcher(t, r, res != cache.Hit, now)
	s.finish(t, r, now, complete)
	latency := complete - now
	ks.TotalLatency += latency
	if latency > s.cfg.L1HitLatency {
		ks.StallCycles += latency - s.cfg.L1HitLatency
	}
	return missed
}

// finish advances the core past the access per the pipeline model.
func (s *system) finish(t *tile, r trace.Record, issued, complete int64) {
	if t.pipe.Kind() == cpu.InOrder {
		t.time = complete
		t.pipe.NoteLoad(t.instr, complete)
		return
	}
	t.time = issued + 1
	t.pipe.NoteLoad(t.instr, complete)
}

// observePrefetcher feeds the access to the tile's hardware prefetcher and
// issues whatever it asks for.
func (s *system) observePrefetcher(t *tile, r trace.Record, miss bool, when int64) {
	if t.pf == nil || s.cfg.PerfectPrefetch {
		return
	}
	a := prefetch.Access{
		PC: r.PC, Addr: r.Addr, Size: int(r.Size), Store: r.IsStore(), Miss: miss,
	}
	if s.valueTap && !r.IsStore() {
		a.Value = t.memr.ReadWord(r.Addr)
	}
	reqs := t.pf.Observe(a, s.reqScratch[:0])
	completions := s.complScratch[:0]
	for i, rq := range reqs {
		start := when
		if rq.Parent >= 0 && rq.Parent < i {
			start = completions[rq.Parent]
		}
		completions = append(completions, s.issuePrefetch(t, start, rq))
	}
	// Keep any growth of the scratch buffers for the next access.
	s.reqScratch = reqs[:0]
	s.complScratch = completions[:0]
}

// perfectLookahead keeps each core's own future lines prefetched
// PerfectDistance accesses ahead (the PerfPref configuration). The cursor
// counts absolute records; the stream is still positioned at t.pos, so the
// current record sits t.winOff places into the window.
func (s *system) perfectLookahead(t *tile, now int64) {
	cur := t.pos + t.winOff
	target := cur + s.cfg.PerfectDistance
	if t.perfAhead < cur {
		t.perfAhead = cur
	}
	if t.perfAhead >= target {
		return
	}
	win := t.stream.Window(target - t.pos)
	for t.perfAhead < target && t.perfAhead-t.pos < len(win) {
		r := win[t.perfAhead-t.pos]
		t.perfAhead++
		if r.IsBarrier() || r.IsGapOnly() || r.IsSWPrefetch() {
			continue
		}
		s.issuePrefetch(t, now, prefetch.Request{Addr: r.Addr, Parent: -1, Exclusive: r.IsStore()})
	}
}

// issuePrefetch runs one non-binding fetch; it returns the fill time (or
// start when the prefetch was elided/dropped). The fetched line enters the
// in-flight set and fills the cache only when its data arrives.
func (s *system) issuePrefetch(t *tile, start int64, rq prefetch.Request) int64 {
	lineID := rq.Addr.LineID()
	addr := rq.Addr
	nbytes := rq.Bytes
	if nbytes <= 0 {
		addr = rq.Addr.Line()
		nbytes = mem.LineSize
	}
	mask := t.l1.MaskFor(addr, nbytes)
	if ln := t.l1.Probe(lineID); ln != nil && ln.Valid&mask == mask {
		if !rq.Exclusive || ln.State == cache.Modified {
			return max64(start, ln.FillTime) // already resident
		}
	}
	if c, ok := t.coversInflight(lineID, mask); ok {
		return c // already in flight
	}
	s.drainInflight(t, start)
	// Outstanding-prefetch limit (hardware prefetchers only; the idealized
	// PerfPref configuration is bounded by bandwidth alone, §5.4).
	if !s.cfg.PerfectPrefetch && len(t.inflight) >= s.cfg.MaxOutstandingPrefetches {
		s.met.PrefetchesDropped++
		return start
	}

	complete := s.fetch(t.id, start, addr, nbytes, rq.Exclusive, true)
	st := cache.Shared
	if rq.Exclusive {
		st = cache.Modified
	}
	t.inflight = append(t.inflight, inflightPF{line: lineID, complete: complete, mask: mask, state: st})
	s.met.PrefetchesIssued++
	return complete
}

// fetchForDemand fills the sectors a demand access needs and returns the
// completion time.
func (s *system) fetchForDemand(t *tile, now int64, r trace.Record, mask cache.SectorMask, res cache.LookupResult, ln *cache.Line) int64 {
	lineID := r.Addr.LineID()
	var addr mem.Addr
	var nbytes int
	var fill cache.SectorMask
	if res == cache.SectorMiss {
		// Fetch only the missing sectors of the partial line.
		fill = mask &^ ln.Valid
		addr, nbytes = sectorRange(lineID, fill, s.cfg.l1SectorBytes())
	} else {
		// Whole-line demand fill.
		fill = t.l1.FullMask()
		addr, nbytes = mem.Addr(lineID<<mem.LineShift), mem.LineSize
	}
	complete := s.fetch(t.id, now, addr, nbytes, r.IsStore(), false)

	st := cache.Shared
	if r.IsStore() {
		st = cache.Modified
	}
	ev := t.l1.Insert(lineID, fill|mask, st, complete, false)
	s.handleL1Eviction(t, ev)
	if l := t.l1.Probe(lineID); l != nil {
		cache.MarkDemandUse(l, uint64(r.Addr.Offset()), uint64(r.Size))
	}
	return complete
}

// sectorRange returns the address and byte count covering mask's sectors.
func sectorRange(lineID uint64, mask cache.SectorMask, sectorBytes int) (mem.Addr, int) {
	base := mem.Addr(lineID << mem.LineShift)
	lo, hi := -1, -1
	for i := 0; i < 64/sectorBytes; i++ {
		if mask&(1<<i) != 0 {
			if lo == -1 {
				lo = i
			}
			hi = i
		}
	}
	if lo == -1 {
		return base, mem.LineSize
	}
	return base + mem.Addr(lo*sectorBytes), (hi - lo + 1) * sectorBytes
}

// fetch walks the shared memory hierarchy for [addr, addr+nbytes) and
// returns the time the data reaches the requesting tile's L1.
func (s *system) fetch(tileID int, now int64, addr mem.Addr, nbytes int, store, isPrefetch bool) int64 {
	lineID := addr.LineID()
	home := int(lineID % uint64(s.cfg.Cores))
	// The slice-local line id strips the home-selection bits; indexing the
	// slice with the full id would leave most of its sets unused.
	sliceLine := lineID / uint64(s.cfg.Cores)

	// Request message (control packet).
	tReq := s.mesh.Send(now, tileID, home, 0)
	tL2 := tReq + s.cfg.L2Latency

	l2c := s.l2[home]
	l2mask := l2c.MaskFor(addr, nbytes)
	res, l2ln := l2c.Lookup(sliceLine, l2mask)

	var dataAtHome int64
	switch res {
	case cache.Hit:
		dataAtHome = tL2
		if l2ln.FillTime > dataAtHome {
			dataAtHome = l2ln.FillTime
		}
	default:
		// Fill from DRAM. Partial DRAM transfers only for prefetch-initiated
		// partial requests or sector refills (§4: partial accesses are
		// triggered by IMP; demand misses move whole lines).
		fetchMask := l2c.FullMask()
		if s.cfg.Partial == PartialNoCDRAM && (isPrefetch || res == cache.SectorMiss) {
			fetchMask = l2mask
			if res == cache.SectorMiss {
				fetchMask = l2mask &^ l2ln.Valid
			}
		}
		dramBytes := fetchMask.Count() * s.cfg.l2SectorBytes()
		mc := dram.MCForLine(lineID, s.cfg.numMCs())
		mcTile := s.mcOf[mc]
		tToMC := s.mesh.Send(tL2, home, mcTile, 0)
		tDRAM := s.mem.Access(tToMC, mc, lineID, dramBytes)
		tBack := s.mesh.Send(tDRAM, mcTile, home, dramBytes)
		st := cache.Shared
		ev := l2c.Insert(sliceLine, fetchMask, st, tBack, isPrefetch)
		s.handleL2Eviction(home, ev)
		dataAtHome = tBack
	}

	s.met.Fetch.N++
	s.met.Fetch.ReqNoC += tReq - now
	s.met.Fetch.L2Wait += dataAtHome - tReq

	// Directory actions.
	var act coherence.Action
	if store {
		act = s.dir[home].Write(lineID, tileID)
		if l2p := l2c.Probe(sliceLine); l2p != nil {
			l2p.State = cache.Modified // the L2 copy will be stale vs the L1
		}
	} else {
		act = s.dir[home].Read(lineID, tileID)
	}
	cohDone := s.applyCoherence(home, tileID, lineID, act, tL2)
	if cohDone > dataAtHome {
		s.met.Fetch.Coh += cohDone - dataAtHome
		dataAtHome = cohDone
	}

	// Data response. Partial NoC transfers apply to all sectored requests.
	respBytes := mem.LineSize
	if s.cfg.Partial != PartialOff && nbytes < mem.LineSize {
		respBytes = nbytes
	}
	done := s.mesh.Send(dataAtHome, home, tileID, respBytes)
	s.met.Fetch.Resp += done - dataAtHome
	return done
}

// applyCoherence executes a directory action starting at time start and
// returns when all acknowledgements have reached the home tile.
func (s *system) applyCoherence(home, requester int, lineID uint64, act coherence.Action, start int64) int64 {
	done := start
	if act.DowngradeOwner >= 0 && act.DowngradeOwner != requester {
		owner := s.tiles[act.DowngradeOwner]
		tMsg := s.mesh.Send(start, home, owner.id, 0)
		owner.l1.Downgrade(lineID)
		// Dirty data flows back to the home L2.
		tWB := s.mesh.Send(tMsg, owner.id, home, mem.LineSize)
		if tWB > done {
			done = tWB
		}
	}
	targets := act.Invalidate
	if act.Broadcast {
		s.met.Broadcasts++
		targets = s.holderScratch[:0]
		for _, t := range s.tiles {
			if t.id != requester && t.l1.Probe(lineID) != nil {
				targets = append(targets, t.id)
			}
		}
		s.holderScratch = targets
		// Broadcast control messages reach every tile regardless of copies.
		for _, t := range s.tiles {
			if t.id != requester {
				s.mesh.Send(start, home, t.id, 0)
			}
		}
	}
	for _, c := range targets {
		if c == requester {
			continue
		}
		victim := s.tiles[c]
		tMsg := s.mesh.Send(start, home, c, 0)
		st, wasted := victim.l1.Invalidate(lineID)
		if wasted {
			s.met.PrefetchesWasted++
		}
		payload := 0
		if st == cache.Modified {
			payload = mem.LineSize // dirty data returns with the ack
		}
		tAck := s.mesh.Send(tMsg, c, home, payload)
		if tAck > done {
			done = tAck
		}
		s.met.Invalidations++
	}
	return done
}

// upgrade obtains write permission for a line already resident in t's L1.
func (s *system) upgrade(t *tile, now int64, lineID uint64) int64 {
	home := int(lineID % uint64(s.cfg.Cores))
	tReq := s.mesh.Send(now, t.id, home, 0)
	act := s.dir[home].Write(lineID, t.id)
	cohDone := s.applyCoherence(home, t.id, lineID, act, tReq+s.cfg.L2Latency)
	if l2p := s.l2[home].Probe(lineID / uint64(s.cfg.Cores)); l2p != nil {
		l2p.State = cache.Modified
	}
	return s.mesh.Send(cohDone, home, t.id, 0)
}

// handleL1Eviction processes a line displaced from t's L1: directory
// notification, dirty writeback traffic, prefetch-accuracy accounting and
// the GP touch-vector hand-off.
func (s *system) handleL1Eviction(t *tile, ev cache.Eviction) {
	if ev.State == cache.Invalid {
		return
	}
	home := int(ev.LineID % uint64(s.cfg.Cores))
	s.dir[home].EvictL1(ev.LineID, t.id)
	if ev.State == cache.Modified {
		// Dirty writeback to the home L2.
		s.mesh.Send(t.time, t.id, home, mem.LineSize)
		if l2p := s.l2[home].Probe(ev.LineID / uint64(s.cfg.Cores)); l2p != nil {
			l2p.State = cache.Modified
		}
	}
	if ev.Prefetched {
		s.met.PrefetchesWasted++
	}
	if t.imp != nil {
		t.imp.NoteEviction(ev.LineID, ev.Touch)
	}
}

// handleL2Eviction recalls all L1 copies of a line evicted from the home
// L2 slice (inclusive hierarchy) and writes dirty data to DRAM. The
// eviction carries the slice-local id; reconstruct the full line id.
func (s *system) handleL2Eviction(home int, ev cache.Eviction) {
	if ev.State == cache.Invalid {
		return
	}
	lineID := ev.LineID*uint64(s.cfg.Cores) + uint64(home)
	act := s.dir[home].EvictL2(lineID)
	targets := act.Invalidate
	if act.Broadcast {
		targets = s.holderScratch[:0]
		for _, t := range s.tiles {
			if t.l1.Probe(lineID) != nil {
				targets = append(targets, t.id)
			}
		}
		s.holderScratch = targets
	}
	dirty := ev.State == cache.Modified
	for _, c := range targets {
		st, wasted := s.tiles[c].l1.Invalidate(lineID)
		if wasted {
			s.met.PrefetchesWasted++
		}
		if st == cache.Modified {
			dirty = true
			s.mesh.Send(s.tiles[c].time, c, home, mem.LineSize)
		}
		s.met.Invalidations++
	}
	if ev.Prefetched {
		s.met.PrefetchesWasted++
	}
	if dirty {
		// Write the line back to memory.
		mc := dram.MCForLine(lineID, s.cfg.numMCs())
		mcTile := s.mcOf[mc]
		t := s.mesh.Send(0, home, mcTile, mem.LineSize)
		s.mem.Access(t, mc, lineID, mem.LineSize)
	}
}

// arriveBarrier parks t until all cores reach the barrier, then releases
// everyone at the max arrival time plus the barrier cost.
func (s *system) arriveBarrier(t *tile) {
	t.time = t.pipe.Drain(t.time)
	t.arrival = t.time
	t.waiting = true
	s.arrivedCount++
	if t.time > s.maxArrival {
		s.maxArrival = t.time
	}
	if s.arrivedCount < s.activeTiles() {
		return
	}
	release := s.maxArrival + s.cfg.BarrierLatency
	for _, w := range s.tiles {
		if !w.waiting {
			continue
		}
		if s.spin {
			spin := release - w.arrival
			w.instr += uint64(spin)
			s.met.SpinCycles += spin
		}
		w.time = release
		w.waiting = false
		s.heapPush(w)
	}
	s.arrivedCount = 0
	s.maxArrival = 0
}

func (s *system) activeTiles() int {
	n := 0
	for _, t := range s.tiles {
		if !t.done {
			n++
		}
	}
	return n
}

// collect finalizes the metrics into a copy that shares nothing with the
// system.
func (s *system) collect() *Metrics {
	m := new(Metrics)
	*m = s.met
	m.PerCoreCycles = make([]int64, len(s.tiles))
	for i, t := range s.tiles {
		m.PerCoreCycles[i] = t.time
		if t.time > m.Cycles {
			m.Cycles = t.time
		}
		m.Instructions += t.instr
		// Prefetches still in flight at the end never served a demand.
		m.PrefetchesWasted += uint64(len(t.inflight))
		if t.imp != nil {
			st := t.imp.Stats()
			m.IMPPatterns += st.PatternsDetected
			m.IMPSecondary += st.SecondaryDetected
			m.IMPIndirect += st.IndirectPrefetches
		}
	}
	m.NoCFlitHops = s.mesh.FlitHops
	m.NoCDataBytes = s.mesh.DataBytes
	ds := s.mem.Stats()
	m.DRAMAccesses = ds.Accesses
	m.DRAMBytes = ds.Bytes
	return m
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

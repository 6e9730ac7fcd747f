package coherence

import (
	"fmt"
	"sort"

	"github.com/impsim/imp/internal/snap"
)

// Snapshot appends the directory's state to w: the protocol counters plus
// every live entry, sorted by line id so equal directories snapshot to equal
// bytes regardless of table history. Tombstones and table geometry are not
// encoded — the hash table is rebuilt on restore, which is behaviorally
// invisible (lookups are by key and the directory never iterates its table).
func (d *Directory) Snapshot(w *snap.Writer) {
	w.U64(d.stats.Reads)
	w.U64(d.stats.Writes)
	w.U64(d.stats.InvalidationsSent)
	w.U64(d.stats.Broadcasts)
	w.U64(d.stats.Downgrades)

	keys := make([]uint64, 0, d.live)
	for i, st := range d.state {
		if st == slotFull {
			keys = append(keys, d.keys[i])
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Int(len(keys))
	for _, k := range keys {
		e := d.Entry(k)
		w.U64(k)
		w.U8(uint8(e.State))
		w.U8(e.ns)
		w.Bool(e.overflow)
		w.I64(int64(e.owner))
		w.I64(int64(e.count))
		for _, s := range e.sharers[:e.ns] {
			w.I64(int64(s))
		}
	}
}

// Restore replaces the directory's contents with a state written by
// Snapshot. The directory must have been built with the same k and core
// count.
func (d *Directory) Restore(r *snap.Reader) error {
	d.stats = Stats{
		Reads:             r.U64(),
		Writes:            r.U64(),
		InvalidationsSent: r.U64(),
		Broadcasts:        r.U64(),
		Downgrades:        r.U64(),
	}
	n := r.Count(6) // key + state + ns + overflow + owner + count
	if r.Err() != nil {
		return r.Err()
	}
	slots := initialSlots
	for 4*(n+1) > 3*slots {
		slots *= 2
	}
	if slots > len(d.state) {
		d.initTable(slots)
	} else {
		d.clearTable()
	}
	for i := 0; i < n; i++ {
		key := r.U64()
		e := d.entry(key)
		e.State = DirState(r.U8())
		e.ns = r.U8()
		e.overflow = r.Bool()
		e.owner = int16(r.I64())
		e.count = int32(r.I64())
		if int(e.ns) > len(e.sharers) {
			return fmt.Errorf("coherence: snapshot entry tracks %d sharers, limit is %d", e.ns, len(e.sharers))
		}
		for j := 0; j < int(e.ns); j++ {
			e.sharers[j] = int16(r.I64())
		}
	}
	return r.Err()
}

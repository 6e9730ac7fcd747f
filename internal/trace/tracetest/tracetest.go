// Package tracetest provides the shared seed-trace construction used by
// the binary-format fuzz targets (trace's fuzz_test.go) and the committed
// corpus generator (trace/gen_fuzz_corpus.go), so the two can never drift
// apart on which record flavors the corpus exercises.
package tracetest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/trace"
)

// TinyProgram builds a small hand-rolled two-core program covering every
// record flavor (load, dependent load, store, software prefetch, barrier,
// gap spill) and two region kinds.
func TinyProgram() *trace.Program {
	space := mem.NewSpace()
	idx := space.AllocInt32("idx", 16)
	vals := space.AllocFloat64("vals", 16)
	for i := range idx.Int32s() {
		idx.Int32s()[i] = int32(15 - i)
	}
	for i := range vals.Float64s() {
		vals.Float64s()[i] = float64(i) * 1.5
	}
	p := &trace.Program{Space: space}
	for c := 0; c < 2; c++ {
		b := trace.NewBuilder()
		for i := 0; i < 4; i++ {
			b.Load(1, idx.Base+mem.Addr(4*i), 4, trace.KindStream)
			b.LoadDep(2, vals.Base+mem.Addr(8*i), 8, trace.KindIndirect)
			b.Compute(3)
		}
		b.Barrier()
		b.SWPrefetch(3, vals.Base, 3)
		b.Store(4, vals.Base+mem.Addr(8*c), 8, trace.KindOther)
		b.Compute(1 << 17) // spills into gap-only records
		b.Barrier()
		p.Traces = append(p.Traces, b.Trace())
	}
	return p
}

// EncodeTiny returns TinyProgram in the binary trace format.
func EncodeTiny() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := TinyProgram().WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("tracetest: encoding tiny program: %w", err)
	}
	return buf.Bytes(), nil
}

// Corruptions derives the structured corruption seeds from a valid
// encoding: bad magic, unsupported version, truncation, and an in-payload
// bit flip (caught only by the CRC).
func Corruptions(valid []byte) map[string][]byte {
	badMagic := append([]byte(nil), valid...)
	copy(badMagic, "JUNK")
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 0xff
	bitflip := append([]byte(nil), valid...)
	bitflip[len(bitflip)/2] ^= 0x40
	return map[string][]byte{
		"badmagic":   badMagic,
		"badversion": badVersion,
		"truncated":  valid[:len(valid)/2],
		"bitflip":    bitflip,
	}
}

// SetLastFlagBits returns a copy of a TinyProgram encoding with bits set in
// the flags byte of the last record and the CRC recomputed, so that only the
// record decoder can object. TinyProgram ends every core with a barrier
// after a two-instruction gap: a flags byte then a one-byte uvarint, right
// before the CRC.
func SetLastFlagBits(valid []byte, bits byte) []byte {
	bad := append([]byte(nil), valid...)
	body := bad[:len(bad)-4]
	body[len(body)-2] |= bits
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(body))
	return bad
}

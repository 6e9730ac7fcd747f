// Binary trace format.
//
// Traces replayed at full scale hold millions of 16-byte records per core;
// rebuilding them from the workload generators dominates experiment setup
// time. The binary format makes traces cheap to persist and re-load: a
// versioned container holding the address-space image plus per-core record
// streams encoded as varint deltas (~6-8 bytes per access record instead
// of 16), terminated by a CRC.
//
// Layout (all integers little-endian or uvarint/zigzag-varint):
//
//	magic   "IMPT"
//	u16     format version (FormatVersion)
//	u8      flags (bit 0: SpinBarriers)
//	u8      reserved (0)
//	u32     core count
//	u32     region count
//	regions, each:
//	    u8       mem.Kind
//	    uvarint  name length, name bytes
//	    uvarint  base address
//	    uvarint  element count
//	    raw      element data, little-endian (float64 as IEEE 754 bits)
//	cores, each:
//	    uvarint  record count
//	    uvarint  barrier count
//	    uvarint  payload byte length
//	    payload  delta-encoded records (see below)
//	u32     IEEE CRC-32 of everything above
//
// Record encoding, with per-core running (prevAddr, prevPC) state:
//
//	u8  flags (Record.Flags without the kind bits 4-5; bits 4-6 are 0)
//	barrier / gap-only records: uvarint gap — nothing else
//	access records:
//	    u8      kind<<6 | (size-1)    (size in 1..64)
//	    uvarint gap
//	    zigzag  pc  - prevPC
//	    zigzag  addr - prevAddr
//
// The per-core section header carries record and barrier counts so a
// streaming reader (FileSource) can validate barrier alignment across
// cores without decoding every record. ReadProgram verifies the CRC;
// FileSource, which never reads the whole file, does not.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/impsim/imp/internal/mem"
)

// FormatVersion is the binary trace format version written by WriteTo.
// Readers reject any other version.
const FormatVersion = 1

var traceMagic = [4]byte{'I', 'M', 'P', 'T'}

// ErrVersion is returned (wrapped) when a trace file was written by an
// incompatible format version.
var ErrVersion = errors.New("unsupported trace format version")

// Guards for length fields read from untrusted input, so a corrupted
// header cannot drive huge allocations or near-endless loops. The decode
// paths additionally bound every variable-size field by the input size
// (an N-element region needs N*elemSize bytes of input to back it).
const (
	maxCores   = 1 << 20 // far beyond the largest square mesh simulated
	maxRegions = 1 << 16
	maxNameLen = 1 << 12
)

// WriteTo encodes the program in the binary trace format. It validates the
// program first (the encoding assumes record invariants) and returns the
// number of bytes written.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(w, crc)}
	bw := bufio.NewWriterSize(cw, 1<<16)

	bw.Write(traceMagic[:])
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], FormatVersion)
	bw.Write(u16[:])
	var flags byte
	if p.SpinBarriers {
		flags |= 1
	}
	bw.WriteByte(flags)
	bw.WriteByte(0)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(p.Cores()))
	bw.Write(u32[:])
	regions := p.Space.Regions()
	binary.LittleEndian.PutUint32(u32[:], uint32(len(regions)))
	bw.Write(u32[:])

	var varbuf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(varbuf[:], v)
		bw.Write(varbuf[:n])
	}
	for _, r := range regions {
		if err := writeRegion(bw, putUvarint, r); err != nil {
			return cw.n, err
		}
	}

	// Each core's payload is encoded into a reusable buffer first: the
	// section header carries its byte length so streaming readers can seek
	// between cores. The buffer is sized once, for the largest core at the
	// widest record encoding, so appending never regrows it.
	most := 0
	for _, t := range p.Traces {
		most = max(most, len(t.Records))
	}
	payload := make([]byte, 0, most*maxEncodedRecord)
	for _, t := range p.Traces {
		payload = appendRecords(payload[:0], t.Records)
		barriers := 0
		for _, r := range t.Records {
			if r.IsBarrier() {
				barriers++
			}
		}
		putUvarint(uint64(len(t.Records)))
		putUvarint(uint64(barriers))
		putUvarint(uint64(len(payload)))
		bw.Write(payload)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	// CRC of everything written so far, outside the checksummed stream.
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	if _, err := w.Write(u32[:]); err != nil {
		return cw.n, err
	}
	return cw.n + 4, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}

func writeRegion(bw *bufio.Writer, putUvarint func(uint64), r *mem.Region) error {
	bw.WriteByte(byte(r.Kind()))
	putUvarint(uint64(len(r.Name)))
	bw.WriteString(r.Name)
	putUvarint(uint64(r.Base))
	putUvarint(uint64(r.Len()))
	var b8 [8]byte
	switch r.Kind() {
	case mem.KindInt32:
		for _, v := range r.Int32s() {
			binary.LittleEndian.PutUint32(b8[:4], uint32(v))
			bw.Write(b8[:4])
		}
	case mem.KindInt64:
		for _, v := range r.Int64s() {
			binary.LittleEndian.PutUint64(b8[:], uint64(v))
			bw.Write(b8[:])
		}
	case mem.KindFloat64:
		for _, v := range r.Float64s() {
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
			bw.Write(b8[:])
		}
	case mem.KindBytes:
		bw.Write(r.Bytes())
	default:
		return fmt.Errorf("trace: cannot encode region %q of kind %v", r.Name, r.Kind())
	}
	return nil
}

// maxEncodedRecord bounds the encoding of one record: the flags and
// kind/size bytes, a 16-bit gap, a 32-bit PC delta and a 64-bit address
// delta, each as a varint.
const maxEncodedRecord = 2 + binary.MaxVarintLen16 + binary.MaxVarintLen32 + binary.MaxVarintLen64

// appendRecords delta-encodes recs onto buf.
func appendRecords(buf []byte, recs []Record) []byte {
	var prevAddr uint64
	var prevPC uint32
	var tmp [binary.MaxVarintLen64]byte
	for _, r := range recs {
		buf = append(buf, r.Flags&^kindMask)
		if r.IsBarrier() || r.IsGapOnly() {
			n := binary.PutUvarint(tmp[:], uint64(r.Gap))
			buf = append(buf, tmp[:n]...)
			continue
		}
		buf = append(buf, byte(r.Kind())<<6|byte(r.Size-1))
		n := binary.PutUvarint(tmp[:], uint64(r.Gap))
		buf = append(buf, tmp[:n]...)
		n = binary.PutVarint(tmp[:], int64(int32(uint32(r.PC)-prevPC)))
		buf = append(buf, tmp[:n]...)
		n = binary.PutVarint(tmp[:], int64(uint64(r.Addr)-prevAddr))
		buf = append(buf, tmp[:n]...)
		prevPC = uint32(r.PC)
		prevAddr = uint64(r.Addr)
	}
	return buf
}

// encodedFlags are the flag bits an encoded flags byte may carry; the kind
// travels in its own byte, and bit 6 is never set.
const encodedFlags = FlagStore | FlagDepPrev | FlagSWPrefetch | FlagBarrier | flagGapOnly

// recordDecoder decodes one core's delta-encoded record stream.
type recordDecoder struct {
	r         io.ByteReader
	prevAddr  uint64
	prevPC    uint32
	remaining uint64
}

// next decodes one record. It returns io.EOF (exactly) only via its caller
// tracking remaining; a short underlying stream yields ErrUnexpectedEOF.
func (d *recordDecoder) next() (Record, error) {
	flags, err := d.r.ReadByte()
	if err != nil {
		return Record{}, eofToUnexpected(err)
	}
	if flags&^encodedFlags != 0 {
		return Record{}, fmt.Errorf("trace: undefined flag bits %#02x", flags&^encodedFlags)
	}
	rec := Record{Flags: flags}
	if rec.IsBarrier() || rec.IsGapOnly() {
		gap, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, eofToUnexpected(err)
		}
		if gap > math.MaxUint16 {
			return Record{}, fmt.Errorf("trace: gap %d overflows", gap)
		}
		rec.Gap = uint16(gap)
		return rec, nil
	}
	ks, err := d.r.ReadByte()
	if err != nil {
		return Record{}, eofToUnexpected(err)
	}
	kind := Kind(ks >> 6)
	if kind > KindIndirect {
		return Record{}, fmt.Errorf("trace: bad kind %d", kind)
	}
	rec.Flags |= kindFlags(kind)
	rec.Size = (ks & 0x3f) + 1
	gap, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Record{}, eofToUnexpected(err)
	}
	if gap > math.MaxUint16 {
		return Record{}, fmt.Errorf("trace: gap %d overflows", gap)
	}
	rec.Gap = uint16(gap)
	dpc, err := binary.ReadVarint(d.r)
	if err != nil {
		return Record{}, eofToUnexpected(err)
	}
	d.prevPC += uint32(dpc)
	rec.PC = PC(d.prevPC)
	daddr, err := binary.ReadVarint(d.r)
	if err != nil {
		return Record{}, eofToUnexpected(err)
	}
	d.prevAddr += uint64(daddr)
	rec.Addr = mem.Addr(d.prevAddr)
	return rec, nil
}

func eofToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadProgram decodes a program written by WriteTo, verifying the trailing
// CRC. The whole program is materialized in memory (the input is slurped up
// front so the checksum covers exactly the encoded bytes); use
// NewFileSource to stream records instead.
func ReadProgram(r io.Reader) (*Program, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading input: %w", err)
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("trace: input too short (%d bytes): %w", len(data), io.ErrUnexpectedEOF)
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(foot)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("trace: CRC mismatch: file says %#x, content is %#x", want, got)
	}

	maxBytes := int64(len(body))
	br := bufio.NewReaderSize(bytes.NewReader(body), 1<<16)
	hdr, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	space, err := readRegions(br, hdr.regions, maxBytes)
	if err != nil {
		return nil, err
	}
	p := &Program{Space: space, SpinBarriers: hdr.spin}
	for c := 0; c < hdr.cores; c++ {
		count, _, _, err := readCoreHeader(br, maxBytes)
		if err != nil {
			return nil, fmt.Errorf("trace: core %d: %w", c, err)
		}
		dec := recordDecoder{r: br}
		// Cap the pre-allocation: a lying count field must not allocate
		// ahead of what the input can actually back.
		prealloc := count
		if prealloc > 1<<20 {
			prealloc = 1 << 20
		}
		recs := make([]Record, 0, prealloc)
		for i := uint64(0); i < count; i++ {
			rec, err := dec.next()
			if err != nil {
				return nil, fmt.Errorf("trace: core %d record %d: %w", c, i, err)
			}
			recs = append(recs, rec)
		}
		p.Traces = append(p.Traces, &Trace{Records: recs})
	}
	return p, nil
}

type header struct {
	spin    bool
	cores   int
	regions int
}

func readHeader(br *bufio.Reader) (header, error) {
	var h header
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return h, fmt.Errorf("trace: reading magic: %w", eofToUnexpected(err))
	}
	if magic != traceMagic {
		return h, fmt.Errorf("trace: bad magic %q (not an IMP trace file)", magic[:])
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return h, fmt.Errorf("trace: reading header: %w", eofToUnexpected(err))
	}
	if v := binary.LittleEndian.Uint16(buf[0:2]); v != FormatVersion {
		return h, fmt.Errorf("trace: %w %d (this build reads version %d)", ErrVersion, v, FormatVersion)
	}
	h.spin = buf[2]&1 != 0
	h.cores = int(binary.LittleEndian.Uint32(buf[4:8]))
	var reg [4]byte
	if _, err := io.ReadFull(br, reg[:]); err != nil {
		return h, fmt.Errorf("trace: reading header: %w", eofToUnexpected(err))
	}
	h.regions = int(binary.LittleEndian.Uint32(reg[:]))
	if h.cores <= 0 || h.cores > maxCores || h.regions < 0 || h.regions > maxRegions {
		return h, fmt.Errorf("trace: implausible header (cores=%d regions=%d)", h.cores, h.regions)
	}
	return h, nil
}

// readRegions decodes n regions. maxBytes is the total input size; no
// single region may claim more element data than that.
func readRegions(br *bufio.Reader, n int, maxBytes int64) (*mem.Space, error) {
	space := mem.NewSpace()
	for i := 0; i < n; i++ {
		if err := readRegion(br, space, maxBytes); err != nil {
			return nil, fmt.Errorf("trace: region %d: %w", i, err)
		}
	}
	return space, nil
}

func readRegion(br *bufio.Reader, space *mem.Space, maxBytes int64) error {
	kb, err := br.ReadByte()
	if err != nil {
		return eofToUnexpected(err)
	}
	kind := mem.Kind(kb)
	elemSize, err := kindElemSize(kind)
	if err != nil {
		return err
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("bad name length: %w", eofToUnexpected(err))
	}
	if nameLen > maxNameLen {
		return fmt.Errorf("implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return eofToUnexpected(err)
	}
	base, err := binary.ReadUvarint(br)
	if err != nil {
		return eofToUnexpected(err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return eofToUnexpected(err)
	}
	if count > uint64(maxBytes)/uint64(elemSize) {
		return fmt.Errorf("region %q claims %d elements, more than the input can back", name, count)
	}
	r, err := space.AllocAt(string(name), kind, mem.Addr(base), int(count))
	if err != nil {
		return err
	}
	var b8 [8]byte
	switch kind {
	case mem.KindInt32:
		dst := r.Int32s()
		for i := range dst {
			if _, err := io.ReadFull(br, b8[:4]); err != nil {
				return eofToUnexpected(err)
			}
			dst[i] = int32(binary.LittleEndian.Uint32(b8[:4]))
		}
	case mem.KindInt64:
		dst := r.Int64s()
		for i := range dst {
			if _, err := io.ReadFull(br, b8[:]); err != nil {
				return eofToUnexpected(err)
			}
			dst[i] = int64(binary.LittleEndian.Uint64(b8[:]))
		}
	case mem.KindFloat64:
		dst := r.Float64s()
		for i := range dst {
			if _, err := io.ReadFull(br, b8[:]); err != nil {
				return eofToUnexpected(err)
			}
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b8[:]))
		}
	case mem.KindBytes:
		if _, err := io.ReadFull(br, r.Bytes()); err != nil {
			return eofToUnexpected(err)
		}
	default:
		return fmt.Errorf("unknown region kind %d", kb)
	}
	return nil
}

// readCoreHeader decodes one per-core section header. maxBytes is the
// total input size: a section cannot hold more payload than the input, and
// every encoded record takes at least two bytes.
func readCoreHeader(br io.ByteReader, maxBytes int64) (count, barriers, payloadLen uint64, err error) {
	if count, err = binary.ReadUvarint(br); err != nil {
		return 0, 0, 0, eofToUnexpected(err)
	}
	if barriers, err = binary.ReadUvarint(br); err != nil {
		return 0, 0, 0, eofToUnexpected(err)
	}
	if payloadLen, err = binary.ReadUvarint(br); err != nil {
		return 0, 0, 0, eofToUnexpected(err)
	}
	if payloadLen > uint64(maxBytes) || count > payloadLen/2 {
		return 0, 0, 0, fmt.Errorf("implausible core section (records=%d bytes=%d)", count, payloadLen)
	}
	return count, barriers, payloadLen, nil
}

// kindElemSize mirrors mem.Kind element widths for input validation.
func kindElemSize(k mem.Kind) (int, error) {
	switch k {
	case mem.KindInt32:
		return 4, nil
	case mem.KindInt64, mem.KindFloat64:
		return 8, nil
	case mem.KindBytes:
		return 1, nil
	default:
		return 0, fmt.Errorf("unknown region kind %d", k)
	}
}

// WriteFile encodes the program to path via a temp file and atomic rename.
func (p *Program) WriteFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".imptrace-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := p.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

package trace_test

// External test package so the round-trip tests can build real workload
// traces (workload imports trace; the reverse import is only legal from
// trace_test).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/trace/tracetest"
	"github.com/impsim/imp/internal/workload"
)

func buildSmall(t *testing.T, name string) *trace.Program {
	t.Helper()
	p, err := workload.Build(name, workload.Options{Cores: 4, Scale: 0.05})
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	return p
}

func newFS(t *testing.T, data []byte) (*trace.FileSource, error) {
	t.Helper()
	return trace.NewFileSource(bytes.NewReader(data), int64(len(data)))
}

func encode(t *testing.T, p *trace.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestRoundTripAllWorkloads pins lossless encoding for every registered
// workload: records, address-space layout and region contents must all
// survive encode/decode exactly.
func TestRoundTripAllWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := buildSmall(t, name)
			data := encode(t, p)
			got, err := trace.ReadProgram(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.SpinBarriers != p.SpinBarriers || got.Cores() != p.Cores() {
				t.Fatalf("shape changed: spin=%v cores=%d", got.SpinBarriers, got.Cores())
			}
			for c := range p.Traces {
				if !reflect.DeepEqual(got.Traces[c].Records, p.Traces[c].Records) {
					t.Fatalf("core %d records differ after round trip", c)
				}
			}
			wantRegs, gotRegs := p.Space.Regions(), got.Space.Regions()
			if len(wantRegs) != len(gotRegs) {
				t.Fatalf("region count %d != %d", len(gotRegs), len(wantRegs))
			}
			for i, wr := range wantRegs {
				gr := gotRegs[i]
				if gr.Name != wr.Name || gr.Base != wr.Base || gr.Kind() != wr.Kind() || gr.Len() != wr.Len() {
					t.Fatalf("region %d header differs: %+v vs %+v", i, gr, wr)
				}
				// Word-level spot check plus full typed compare.
				switch wr.Kind() {
				case mem.KindInt32:
					if !reflect.DeepEqual(gr.Int32s(), wr.Int32s()) {
						t.Fatalf("region %q int32 data differs", wr.Name)
					}
				case mem.KindInt64:
					if !reflect.DeepEqual(gr.Int64s(), wr.Int64s()) {
						t.Fatalf("region %q int64 data differs", wr.Name)
					}
				case mem.KindFloat64:
					if !reflect.DeepEqual(gr.Float64s(), wr.Float64s()) {
						t.Fatalf("region %q float64 data differs", wr.Name)
					}
				case mem.KindBytes:
					if !bytes.Equal(gr.Bytes(), wr.Bytes()) {
						t.Fatalf("region %q byte data differs", wr.Name)
					}
				}
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("decoded program invalid: %v", err)
			}
		})
	}
}

// TestRoundTripSWPrefetch covers the software-prefetch record flavor.
func TestRoundTripSWPrefetch(t *testing.T) {
	p, err := workload.Build("spmv", workload.Options{Cores: 4, Scale: 0.05, SoftwarePrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadProgram(bytes.NewReader(encode(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	for c := range p.Traces {
		if !reflect.DeepEqual(got.Traces[c].Records, p.Traces[c].Records) {
			t.Fatalf("core %d records differ", c)
		}
	}
}

func TestEncodedDensity(t *testing.T) {
	p := buildSmall(t, "pagerank")
	data := encode(t, p)
	var records, regionBytes int
	for _, tr := range p.Traces {
		records += len(tr.Records)
	}
	for _, r := range p.Space.Regions() {
		regionBytes += r.Size()
	}
	perRecord := float64(len(data)-regionBytes) / float64(records)
	if perRecord > 10 {
		t.Errorf("record encoding density %.1f B/record, want <= 10", perRecord)
	}
}

func TestTruncatedInputs(t *testing.T) {
	p := buildSmall(t, "spmv")
	data := encode(t, p)
	// Truncations at several depths: magic, header, regions, records, CRC.
	for _, cut := range []int{0, 2, 7, 40, len(data) / 2, len(data) - 5, len(data) - 1} {
		if _, err := trace.ReadProgram(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded; want error", cut, len(data))
		}
	}
}

func TestCorruptedPayloadFailsCRC(t *testing.T) {
	p := buildSmall(t, "spmv")
	data := encode(t, p)
	// Flip one bit near the end of the record section (after the regions,
	// before the CRC) — decode must not silently return wrong records.
	data[len(data)-20] ^= 0x10
	if _, err := trace.ReadProgram(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted trace decoded without error")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := trace.ReadProgram(bytes.NewReader([]byte("nonsense data here"))); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestCrossVersionHeaderRejected(t *testing.T) {
	p := buildSmall(t, "spmv")
	data := encode(t, p)
	// Bump the version field (bytes 4..6 after the magic) and re-seal the
	// CRC so the version check, not the checksum, is what rejects the file.
	binary.LittleEndian.PutUint16(data[4:6], trace.FormatVersion+1)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	_, err := trace.ReadProgram(bytes.NewReader(data))
	if !errors.Is(err, trace.ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
	// FileSource must reject it the same way.
	if _, err := trace.NewFileSource(bytes.NewReader(data), int64(len(data))); !errors.Is(err, trace.ErrVersion) {
		t.Fatalf("FileSource on future version: got %v, want ErrVersion", err)
	}
}

// TestFileSourceStreamsIdenticalRecords drains a FileSource window-by-window
// and compares against the in-memory records, exercising windowed reads and
// Advance compaction.
func TestFileSourceStreamsIdenticalRecords(t *testing.T) {
	p := buildSmall(t, "graph500")
	fs, err := newFS(t, encode(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Cores() != p.Cores() {
		t.Fatalf("cores %d != %d", fs.Cores(), p.Cores())
	}
	if err := fs.Validate(); err != nil {
		t.Fatal(err)
	}
	if fs.Memory().Footprint() != p.Space.Footprint() {
		t.Fatalf("footprint %d != %d", fs.Memory().Footprint(), p.Space.Footprint())
	}
	for c := 0; c < fs.Cores(); c++ {
		want := p.Traces[c].Records
		rs := fs.Open(c)
		var got []trace.Record
		for {
			win := rs.Window(7) // odd size to shake boundary handling
			if len(win) == 0 {
				break
			}
			// Consume fewer records than the window holds to force overlap.
			n := len(win)
			if n > 3 {
				n = 3
			}
			got = append(got, win[:n]...)
			rs.Advance(n)
		}
		if err := rs.Err(); err != nil {
			t.Fatalf("core %d stream error: %v", c, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("core %d: streamed %d records differ from in-memory %d", c, len(got), len(want))
		}
	}
}

// TestFileSourceTruncatedPayload checks that a stream over a truncated file
// surfaces the error through Err rather than panicking or succeeding.
func TestFileSourceTruncatedPayload(t *testing.T) {
	p := buildSmall(t, "spmv")
	data := encode(t, p)
	fs, err := trace.NewFileSource(bytes.NewReader(data[:len(data)-40]), int64(len(data)-40))
	if err != nil {
		// Acceptable: the cut hit the section index itself.
		return
	}
	last := fs.Cores() - 1
	rs := fs.Open(last)
	for len(rs.Window(64)) > 0 {
		rs.Advance(len(rs.Window(64)))
	}
	if rs.Err() == nil {
		t.Fatal("truncated payload streamed to completion without error")
	}
	if !errors.Is(rs.Err(), io.ErrUnexpectedEOF) {
		t.Logf("note: stream error is %v (not ErrUnexpectedEOF); acceptable if decode failed another way", rs.Err())
	}
}

func TestWriteFileAndOpenFile(t *testing.T) {
	p := buildSmall(t, "dense")
	path := filepath.Join(t.TempDir(), "dense.imptrace")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fs, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Records() == 0 || int(fs.Records()) != countRecords(p) {
		t.Fatalf("Records() = %d, want %d", fs.Records(), countRecords(p))
	}
	back, err := trace.ReadProgram(mustOpen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalAccesses() != p.TotalAccesses() {
		t.Fatalf("accesses %d != %d", back.TotalAccesses(), p.TotalAccesses())
	}
}

func countRecords(p *trace.Program) int {
	n := 0
	for _, tr := range p.Traces {
		n += len(tr.Records)
	}
	return n
}

func mustOpen(t *testing.T, path string) io.Reader {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

// TestUndefinedFlagBitsRejected: bits 4-6 of an encoded flags byte are never
// written (the kind travels in its own byte, and bit 6 is unused). A record
// decoded with any of them set would carry a kind its encoding never named,
// so both decode paths must refuse it.
func TestUndefinedFlagBitsRejected(t *testing.T) {
	valid, err := tracetest.EncodeTiny()
	if err != nil {
		t.Fatal(err)
	}
	if valid[len(valid)-6] != trace.FlagBarrier {
		t.Fatalf("tiny program's last record flags %#02x, want a barrier", valid[len(valid)-6])
	}
	for _, bit := range []byte{1 << 4, 1 << 5, 1 << 6} {
		bad := tracetest.SetLastFlagBits(valid, bit)
		if _, err := trace.ReadProgram(bytes.NewReader(bad)); err == nil {
			t.Errorf("ReadProgram accepted flag bit %#02x", bit)
		}
		fs, err := newFS(t, bad)
		if err != nil {
			t.Fatalf("indexing: %v", err)
		}
		s := fs.Open(fs.Cores() - 1)
		for w := s.Window(64); len(w) > 0; w = s.Window(64) {
			s.Advance(len(w))
		}
		if s.Err() == nil {
			t.Errorf("record stream accepted flag bit %#02x", bit)
		}
	}
}

// TestCommittedEncodingDecodesUnchanged: the committed seed corpus holds the
// tiny program as an earlier build encoded it. It must still decode to the
// records the Builder makes today and re-encode to the same bytes.
func TestCommittedEncodingDecodesUnchanged(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadProgram", "seed-valid"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
	committed, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("parsing corpus file: %v", err)
	}
	got, err := trace.ReadProgram(strings.NewReader(committed))
	if err != nil {
		t.Fatalf("decoding committed encoding: %v", err)
	}
	want := tracetest.TinyProgram()
	for c := range want.Traces {
		if !reflect.DeepEqual(got.Traces[c].Records, want.Traces[c].Records) {
			t.Fatalf("core %d: committed records differ from today's build", c)
		}
	}
	if again := encode(t, got); string(again) != committed {
		t.Fatal("re-encoding the committed trace changed its bytes")
	}
}

package trace_test

// Native fuzz targets for the binary trace format. The decoder consumes
// untrusted bytes (trace files travel between machines and live in shared
// caches), so the contract under fuzzing is: never panic, never allocate
// unboundedly — corrupt input yields an error, nothing else. Seed corpus
// files live under testdata/fuzz/ (regenerate with
// `go run gen_fuzz_corpus.go`); the harness additionally seeds the same
// valid encode in-process (internal/trace/tracetest) so mutation always
// starts from structured input.
//
// Run locally:
//
//	go test -run '^$' -fuzz '^FuzzReadProgram$' -fuzztime 30s ./internal/trace
//	go test -run '^$' -fuzz '^FuzzRecordStream$' -fuzztime 30s ./internal/trace

import (
	"bytes"
	"testing"

	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/trace/tracetest"
)

func addSeeds(f *testing.F) []byte {
	valid, err := tracetest.EncodeTiny()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, data := range tracetest.Corruptions(valid) {
		f.Add(data)
	}
	return valid
}

// FuzzReadProgram: the materializing, checksum-verifying load path must
// return an error on any corrupt input — panics and unbounded allocation
// are the bugs being hunted.
func FuzzReadProgram(f *testing.F) {
	valid := addSeeds(f)
	f.Add([]byte{})
	f.Add(tracetest.SetLastFlagBits(valid, 1<<4))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := trace.ReadProgram(bytes.NewReader(data))
		if err != nil {
			if p != nil {
				t.Fatal("ReadProgram returned both a program and an error")
			}
			return
		}
		// A successfully decoded program must survive its own invariants
		// without panicking; Validate may still reject it (the CRC protects
		// integrity, not semantics).
		// And it must re-encode if valid — a decode/encode loop must not
		// crash on anything the decoder accepted.
		if p.Validate() == nil {
			if _, err := p.WriteTo(bytes.NewBuffer(nil)); err != nil {
				t.Fatalf("decoded program failed to re-encode: %v", err)
			}
		}
	})
}

// FuzzRecordStream: the streaming path (header + section index + lazy
// per-core decode) must surface corruption through RecordStream.Err, never
// a panic, and must terminate for any input.
func FuzzRecordStream(f *testing.F) {
	addSeeds(f)
	f.Add([]byte("IMPT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := trace.NewFileSource(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		_ = fs.Validate()
		_ = fs.Records()
		for c := 0; c < fs.Cores(); c++ {
			s := fs.Open(c)
			for {
				w := s.Window(97)
				if len(w) == 0 {
					break
				}
				for _, r := range w {
					// Touch every accessor; corrupt records must stay
					// representable even when semantically invalid.
					_ = r.Instructions()
					_ = r.String()
				}
				s.Advance(len(w))
			}
			_ = s.Err() // corruption lands here, never as a panic
		}
	})
}

//go:build ignore

// gen_fuzz_corpus regenerates the committed seed corpora for FuzzRestore and
// FuzzOpenMetrics (fuzz_test.go):
//
//	cd internal/sim && go run gen_fuzz_corpus.go
//
// Rerun after any snapshot format change (SnapshotFormatVersion bump) so
// the corpus keeps seeding the component restore paths rather than dying at
// the version check. The workload and config here must match fuzz_test.go's
// fuzzWorkload/fuzzCores/fuzzScale and fuzzConfig; change them together.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/impsim/imp/internal/sim"
	"github.com/impsim/imp/internal/workload"
)

func main() {
	prog, err := workload.Build("spmv", workload.Options{Cores: 4, Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.DefaultConfig(4)
	cfg.L1SizeBytes = 4 << 10
	cfg.L1Ways = 2
	cfg.L2SliceBytes = 8 << 10
	cfg.L2Ways = 2
	cfg.Prefetcher = sim.PrefetchIMP

	records := 0
	for _, t := range prog.Traces {
		if len(t.Records) > records {
			records = len(t.Records)
		}
	}
	sys, err := sim.New(prog.Source(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.RunUntil(records / 2); err != nil {
		log.Fatal(err)
	}
	valid, err := sys.Snapshot()
	if err != nil {
		log.Fatal(err)
	}

	writeSeeds("FuzzRestore", valid)

	m, err := sys.Finish()
	if err != nil {
		log.Fatal(err)
	}
	sealed := sim.SealMetrics(m)
	writeSeeds("FuzzOpenMetrics", sealed)
	otherKind := append([]byte(nil), sealed...)
	otherKind[6] = byte(sim.BlobMachine)
	writeSeed("FuzzOpenMetrics", "seed-other-kind", otherKind)
}

// writeSeeds writes valid and the standard damage done to it as target's
// corpus.
func writeSeeds(target string, valid []byte) {
	seeds := map[string][]byte{
		"seed-valid":       valid,
		"seed-empty":       nil,
		"seed-truncated":   valid[:len(valid)/2],
		"seed-header-only": valid[:8],
		"seed-bad-magic":   append([]byte("JUNK"), valid[4:]...),
	}
	badVer := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(badVer[4:], sim.SnapshotFormatVersion+1)
	seeds["seed-bad-version"] = badVer
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0xFF
	seeds["seed-crc-flip"] = crcFlip
	for i, off := range []int{8, len(valid) / 4, len(valid) / 2, len(valid) - 8} {
		// Payload flips break the CRC, but the fuzz harness also re-envelopes
		// every input with a fresh CRC, so these still reach the decoders.
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x80
		seeds[fmt.Sprintf("seed-flip-%d", i)] = mut
	}
	for name, data := range seeds {
		writeSeed(target, name, data)
	}
	fmt.Printf("wrote %d seeds for %s (%d valid bytes)\n", len(seeds), target, len(valid))
}

func writeSeed(target, name string, data []byte) {
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
}

//go:build ignore

// gen_fuzz_corpus regenerates the committed seed corpus for the binary
// trace fuzz targets (fuzz_test.go):
//
//	cd internal/trace && go run gen_fuzz_corpus.go
//
// Rerun after any format change (FormatVersion bump) so the corpus keeps
// seeding the current decoder's deep branches rather than the version
// check. Seed construction is shared with the fuzz harness via
// internal/trace/tracetest, so the two cannot drift.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/impsim/imp/internal/trace/tracetest"
)

func main() {
	valid, err := tracetest.EncodeTiny()
	if err != nil {
		log.Fatal(err)
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	for _, target := range []string{"FuzzReadProgram", "FuzzRecordStream"} {
		write(target, "seed-valid", valid)
		for name, data := range tracetest.Corruptions(valid) {
			write(target, "seed-"+name, data)
		}
	}
	write("FuzzReadProgram", "seed-empty", nil)
	write("FuzzReadProgram", "seed-kindbit", tracetest.SetLastFlagBits(valid, 1<<4))
	write("FuzzRecordStream", "seed-magic-only", []byte("IMPT"))
	fmt.Println("wrote seed corpus for FuzzReadProgram and FuzzRecordStream")
}

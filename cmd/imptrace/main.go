// Command imptrace generates, encodes and inspects workload traces.
//
// Subcommands:
//
//	stat    build a workload trace (or stream an encoded file) and print
//	        its shape: per-kind access counts, per-core balance, regions
//	encode  build a workload trace and write it in the binary trace format
//	decode  load an encoded trace file (checksum-verified) and print its
//	        shape
//
// Usage:
//
//	imptrace stat -workload graph500 -cores 16 -scale 0.2
//	imptrace stat -i spmv.imptrace -dump 20
//	imptrace encode -workload spmv -cores 64 -o spmv.imptrace
//	imptrace decode -i spmv.imptrace
//
// Invoking imptrace with flags but no subcommand behaves as `stat`
// (backward compatible with earlier versions). `stat -i` streams the file
// with bounded memory and skips checksum verification; `decode` verifies
// the checksum and materializes every record.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/impsim/imp/internal/castore"
	"github.com/impsim/imp/internal/progcache"
	"github.com/impsim/imp/internal/sim"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprint(w, `Usage:
  imptrace [stat] [flags]   print the shape of a workload or trace file
  imptrace encode [flags]   write a workload trace in the binary format
  imptrace decode [flags]   verify and print an encoded trace file

Run 'imptrace <command> -h' for the command's flags.
`)
}

func run(args []string, stdout, stderr io.Writer) int {
	cmd := "stat"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd = args[0]
		args = args[1:]
	}
	switch cmd {
	case "stat":
		return runStat(args, stdout, stderr)
	case "encode":
		return runEncode(args, stdout, stderr)
	case "decode":
		return runDecode(args, stdout, stderr)
	case "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "imptrace: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
}

// buildFlags registers the workload-construction flags shared by stat and
// encode.
type buildFlags struct {
	workload *string
	cores    *int
	scale    *float64
	sw       *bool
	seed     *int64
}

func addBuildFlags(fs *flag.FlagSet) buildFlags {
	return buildFlags{
		workload: fs.String("workload", "pagerank", "workload: "+strings.Join(workload.Names(), ", ")),
		cores:    fs.Int("cores", 64, "core count"),
		scale:    fs.Float64("scale", 1.0, "input size multiplier"),
		sw:       fs.Bool("swpref", false, "insert software prefetches"),
		seed:     fs.Int64("seed", 0, "input generation seed (0 = default inputs)"),
	}
}

func (b buildFlags) build() (*trace.Program, error) {
	return progcache.Get(*b.workload, workload.Options{
		Cores: *b.cores, Scale: *b.scale, SoftwarePrefetch: *b.sw, Seed: *b.seed,
	})
}

func parse(fs *flag.FlagSet, args []string) (int, bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	return 0, true
}

func runStat(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imptrace stat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	b := addBuildFlags(fs)
	in := fs.String("i", "", "encoded trace file to stream instead of building a workload")
	dump := fs.Int("dump", 0, "dump the first N records of core 0")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if *in != "" {
		return statFile(*in, *dump, stdout, stderr)
	}
	p, err := b.build()
	if err != nil {
		fmt.Fprintln(stderr, "imptrace:", err)
		return 1
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, "imptrace: invalid program:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload=%s cores=%d scale=%g swpref=%v\n", *b.workload, *b.cores, *b.scale, *b.sw)
	reportProgram(stdout, p, *dump)
	return 0
}

func runEncode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imptrace encode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	b := addBuildFlags(fs)
	out := fs.String("o", "", "output file (required)")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if *out == "" {
		fmt.Fprintln(stderr, "imptrace encode: -o required")
		fs.Usage()
		return 2
	}
	p, err := b.build()
	if err != nil {
		fmt.Fprintln(stderr, "imptrace:", err)
		return 1
	}
	if err := p.WriteFile(*out); err != nil {
		fmt.Fprintln(stderr, "imptrace:", err)
		return 1
	}
	fi, err := os.Stat(*out)
	if err != nil {
		fmt.Fprintln(stderr, "imptrace:", err)
		return 1
	}
	records := 0
	for _, t := range p.Traces {
		records += len(t.Records)
	}
	fmt.Fprintf(stdout, "encoded %s: %d cores, %d records, %d bytes (%.1f B/record incl. memory image)\n",
		*out, p.Cores(), records, fi.Size(), float64(fi.Size())/float64(records))
	return 0
}

func runDecode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imptrace decode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "encoded trace file (required)")
	dump := fs.Int("dump", 0, "dump the first N records of core 0")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if *in == "" {
		fmt.Fprintln(stderr, "imptrace decode: -i required")
		fs.Usage()
		return 2
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(stderr, "imptrace:", err)
		return 1
	}
	defer f.Close()
	p, err := trace.ReadProgram(f)
	if err != nil {
		fmt.Fprintln(stderr, "imptrace:", err)
		return 1
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, "imptrace: invalid program:", err)
		return 1
	}
	fmt.Fprintf(stdout, "file=%s cores=%d (checksum ok)\n", *in, p.Cores())
	reportProgram(stdout, p, *dump)
	return 0
}

// sniffSnapshot reads just enough of path to recognize a simulator
// checkpoint by its magic, and which kind of blob it holds (a sweep's
// checkpoint cache holds finished-run metrics; machine snapshots share the
// envelope). A checkpoint cache file wraps the blob in castore's envelope,
// which is looked through.
func sniffSnapshot(path string) (version uint16, kind sim.BlobKind, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	head := make([]byte, castore.HeaderLen+16)
	n, _ := io.ReadFull(f, head)
	head = head[:n]
	if strings.HasPrefix(string(head), castore.Magic) {
		head = head[min(n, castore.HeaderLen):]
	}
	return sim.IsSnapshot(head)
}

// statFile streams an encoded trace with bounded memory: records are
// decoded window by window and never materialized whole.
func statFile(path string, dump int, stdout, stderr io.Writer) int {
	fs, err := trace.OpenFile(path)
	if err != nil {
		// A checkpoint in a trace flag is an easy mix-up now that sweeps
		// write both kinds of file; name what the file actually is instead
		// of a bare bad-magic complaint.
		if ver, kind, ok := sniffSnapshot(path); ok {
			fmt.Fprintf(stderr, "imptrace: %s is an IMP simulator checkpoint (%v, snapshot format v%d), not a trace\n", path, kind, ver)
			return 1
		}
		fmt.Fprintln(stderr, "imptrace:", err)
		return 1
	}
	defer fs.Close()
	if err := fs.Validate(); err != nil {
		fmt.Fprintln(stderr, "imptrace: invalid trace:", err)
		return 1
	}
	fmt.Fprintf(stdout, "file=%s format=trace-v%d cores=%d records=%d (streamed)\n",
		path, trace.FormatVersion, fs.Cores(), fs.Records())
	space := fs.Memory()
	fmt.Fprintf(stdout, "footprint     %.2f MB in %d regions\n",
		float64(space.Footprint())/1e6, len(space.Regions()))
	for _, r := range space.Regions() {
		fmt.Fprintf(stdout, "  %-12s %10d bytes @ %v\n", r.Name, r.Size(), r.Base)
	}

	kinds := map[trace.Kind]uint64{}
	var instructions, accesses uint64
	var minA, maxA uint64 = 1 << 62, 0
	for c := 0; c < fs.Cores(); c++ {
		rs := fs.Open(c)
		var coreAccesses uint64
		for {
			win := rs.Window(4096)
			if len(win) == 0 {
				break
			}
			for _, r := range win {
				instructions += r.Instructions()
				// Same counting rule as Trace.MemoryAccesses/KindCounts so
				// `stat -i` matches `stat -workload` exactly.
				if r.IsBarrier() || r.IsSWPrefetch() {
					continue
				}
				kinds[r.Kind()]++
				coreAccesses++
			}
			rs.Advance(len(win))
		}
		if err := rs.Err(); err != nil {
			fmt.Fprintf(stderr, "imptrace: core %d: %v\n", c, err)
			return 1
		}
		accesses += coreAccesses
		if coreAccesses < minA {
			minA = coreAccesses
		}
		if coreAccesses > maxA {
			maxA = coreAccesses
		}
	}
	fmt.Fprintf(stdout, "instructions  %d\n", instructions)
	fmt.Fprintf(stdout, "accesses      %d\n", accesses)
	printKinds(stdout, kinds, float64(accesses))
	fmt.Fprintf(stdout, "balance       min %d / max %d accesses per core\n", minA, maxA)

	if dump > 0 {
		fmt.Fprintln(stdout, "\ncore 0 head:")
		rs := fs.Open(0)
		win := rs.Window(dump)
		for i, r := range win {
			fmt.Fprintf(stdout, "  %4d: %v\n", i, r)
		}
	}
	return 0
}

// reportProgram prints the shape of a materialized program (legacy stat
// output).
func reportProgram(stdout io.Writer, p *trace.Program, dump int) {
	fmt.Fprintf(stdout, "footprint     %.2f MB in %d regions\n",
		float64(p.Space.Footprint())/1e6, len(p.Space.Regions()))
	for _, r := range p.Space.Regions() {
		fmt.Fprintf(stdout, "  %-12s %10d bytes @ %v\n", r.Name, r.Size(), r.Base)
	}
	fmt.Fprintf(stdout, "instructions  %d\n", p.TotalInstructions())
	fmt.Fprintf(stdout, "accesses      %d\n", p.TotalAccesses())

	kinds := map[trace.Kind]uint64{}
	var minA, maxA uint64 = 1 << 62, 0
	for _, tr := range p.Traces {
		for k, n := range tr.KindCounts() {
			kinds[k] += n
		}
		a := tr.MemoryAccesses()
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
	}
	printKinds(stdout, kinds, float64(p.TotalAccesses()))
	fmt.Fprintf(stdout, "balance       min %d / max %d accesses per core\n", minA, maxA)

	if dump > 0 {
		fmt.Fprintln(stdout, "\ncore 0 head:")
		for i, r := range p.Traces[0].Records {
			if i >= dump {
				break
			}
			fmt.Fprintf(stdout, "  %4d: %v\n", i, r)
		}
	}
}

func printKinds(stdout io.Writer, kinds map[trace.Kind]uint64, total float64) {
	fmt.Fprintf(stdout, "kinds         indirect %.1f%%, stream %.1f%%, other %.1f%%\n",
		100*float64(kinds[trace.KindIndirect])/total,
		100*float64(kinds[trace.KindStream])/total,
		100*float64(kinds[trace.KindOther])/total)
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/impsim/imp/internal/castore"
)

func runTrace(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// isolateCache keeps the trace cache inside the test so runs are hermetic.
func isolateCache(t *testing.T) {
	t.Helper()
	t.Setenv("IMP_TRACE_CACHE", t.TempDir())
}

func TestHelpExitsZero(t *testing.T) {
	for _, args := range [][]string{
		{"-h"},
		{"help"},
		{"stat", "-h"},
		{"encode", "-h"},
		{"decode", "-h"},
	} {
		if _, _, code := runTrace(t, args...); code != 0 {
			t.Errorf("%v exited %d, want 0", args, code)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"stat", "-nope"},
		{"encode", "-nope"},
		{"decode", "-nope"},
	} {
		if _, _, code := runTrace(t, args...); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	_, errb, code := runTrace(t, "frobnicate")
	if code != 2 || !strings.Contains(errb, "unknown command") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

func TestUnknownWorkload(t *testing.T) {
	isolateCache(t)
	_, errb, code := runTrace(t, "stat", "-workload", "nope")
	if code != 1 || !strings.Contains(errb, "unknown") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

// TestLegacyInvocation pins the pre-subcommand CLI: bare flags behave as
// `stat`.
func TestLegacyInvocation(t *testing.T) {
	isolateCache(t)
	out, errb, code := runTrace(t, "-workload", "spmv", "-cores", "4", "-scale", "0.05", "-dump", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"workload=spmv", "accesses", "kinds", "balance", "core 0 head:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEncodeRequiresOutput(t *testing.T) {
	_, errb, code := runTrace(t, "encode", "-workload", "spmv", "-cores", "4", "-scale", "0.05")
	if code != 2 || !strings.Contains(errb, "-o required") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

func TestDecodeRequiresInput(t *testing.T) {
	_, errb, code := runTrace(t, "decode")
	if code != 2 || !strings.Contains(errb, "-i required") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

func TestDecodeMissingFile(t *testing.T) {
	_, _, code := runTrace(t, "decode", "-i", filepath.Join(t.TempDir(), "absent.imptrace"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestDecodeGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.imptrace")
	if err := os.WriteFile(path, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errb, code := runTrace(t, "decode", "-i", path)
	if code != 1 || errb == "" {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

func TestStatRejectsCheckpointFileClearly(t *testing.T) {
	// A simulator checkpoint handed to `stat -i` must be named for what it
	// is, not rejected with a generic bad-magic error — bare, or as the
	// checkpoint cache stores it, inside castore's envelope.
	header := []byte{'I', 'M', 'P', 'S', 1, 0, 1, 0} // magic, version=1 LE, kind=metrics, reserved
	blob := append(header, []byte("payload")...)
	bare := filepath.Join(t.TempDir(), "mixup.snap")
	if err := os.WriteFile(bare, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cached := filepath.Join(t.TempDir(), "mixup"+castore.Ext)
	if err := castore.WriteFile(cached, blob); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bare, cached} {
		_, errb, code := runTrace(t, "stat", "-i", path)
		if code != 1 {
			t.Fatalf("%s: exit %d, want 1", path, code)
		}
		if !strings.Contains(errb, "checkpoint") || !strings.Contains(errb, "not a trace") ||
			!strings.Contains(errb, "snapshot format v1") || !strings.Contains(errb, "finished-run metrics") {
			t.Errorf("unhelpful error for checkpoint file %s: %q", path, errb)
		}
	}
}

func TestStatReportsTraceFormatVersion(t *testing.T) {
	isolateCache(t)
	path := filepath.Join(t.TempDir(), "w.imptrace")
	if _, errb, code := runTrace(t, "encode", "-workload", "spmv", "-cores", "2",
		"-scale", "0.05", "-o", path); code != 0 {
		t.Fatalf("encode failed: %s", errb)
	}
	out, _, code := runTrace(t, "stat", "-i", path)
	if code != 0 {
		t.Fatal("stat -i failed")
	}
	if !strings.Contains(out, "format=trace-v1") {
		t.Errorf("stat -i does not report the detected format: %q", out)
	}
}

// section extracts the report lines that must agree between the build-side
// and file-side paths (everything except the first header line).
func section(out string) string {
	lines := strings.SplitN(out, "\n", 2)
	if len(lines) < 2 {
		return ""
	}
	return lines[1]
}

func TestEncodeDecodeStatRoundTrip(t *testing.T) {
	isolateCache(t)
	path := filepath.Join(t.TempDir(), "spmv.imptrace")
	build := []string{"-workload", "spmv", "-cores", "4", "-scale", "0.05", "-seed", "7"}

	out, errb, code := runTrace(t, append([]string{"encode"}, append(build, "-o", path)...)...)
	if code != 0 {
		t.Fatalf("encode exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "encoded") || !strings.Contains(out, "B/record") {
		t.Errorf("encode output: %q", out)
	}

	statBuild, _, code := runTrace(t, append([]string{"stat"}, build...)...)
	if code != 0 {
		t.Fatal("stat on workload failed")
	}
	statFile, errb, code := runTrace(t, "stat", "-i", path)
	if code != 0 {
		t.Fatalf("stat -i exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(statFile, "streamed") {
		t.Errorf("stat -i did not report streaming: %q", statFile)
	}
	if section(statBuild) != section(statFile) {
		t.Errorf("streamed stat diverges from built stat:\n--- build\n%s\n--- file\n%s", statBuild, statFile)
	}

	decodeOut, errb, code := runTrace(t, "decode", "-i", path, "-dump", "2")
	if code != 0 {
		t.Fatalf("decode exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(decodeOut, "checksum ok") || !strings.Contains(decodeOut, "core 0 head:") {
		t.Errorf("decode output: %q", decodeOut)
	}
	if !strings.Contains(section(decodeOut), "accesses") {
		t.Errorf("decode report incomplete: %q", decodeOut)
	}
}

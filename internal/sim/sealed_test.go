package sim

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// filledMetrics returns a Metrics of a cores-core run with every field set,
// by reflection, to a value no other field has. A field of a kind the walk
// does not know stops the test: the sealed form has to learn it first.
func filledMetrics(t testing.TB, cores int) *Metrics {
	t.Helper()
	next := int64(1 << 40) // multi-byte varints, so a swapped pair cannot hide
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Int64:
			next += 3
			v.SetInt(-next)
		case reflect.Uint64:
			next += 3
			v.SetUint(uint64(next))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), path)
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), cores, cores))
			for i := 0; i < cores; i++ {
				fill(v.Index(i), path)
			}
		default:
			t.Fatalf("%s is a %v: SealMetrics/OpenMetrics and this test do not know that kind", path, v.Kind())
		}
	}
	m := new(Metrics)
	fill(reflect.ValueOf(m).Elem(), "Metrics")
	return m
}

// TestSealedMetricsRoundTrip: what OpenMetrics returns is what SealMetrics
// was given, field for field. A field added to Metrics and not to the codec
// comes back zero and fails here.
func TestSealedMetricsRoundTrip(t *testing.T) {
	for _, cores := range []int{1, 4, 64} {
		m := filledMetrics(t, cores)
		got, err := OpenMetrics(SealMetrics(m), cores)
		if err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%d cores: opened metrics differ from the sealed ones:\n  sealed: %+v\n  opened: %+v", cores, m, got)
		}
	}
	// And of a real run, whose values are the small ones cells hold.
	p := indirectProgram(4, 200, 2)
	cfg := DefaultConfig(4)
	cfg.Prefetcher = PrefetchIMP
	live := run(t, p, cfg)
	got, err := OpenMetrics(SealMetrics(live), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, live) {
		t.Errorf("opened metrics differ from the live run's:\n  live:   %v\n  opened: %v", live, got)
	}
}

// TestBlobKindsDoNotCross: the two kinds of blob share an envelope and
// nothing else. Each reader refuses the other's by ErrSnapshotKind.
func TestBlobKindsDoNotCross(t *testing.T) {
	p := indirectProgram(4, 100, 1)
	cfg := DefaultConfig(4)
	sys, err := New(p.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunUntil(1 << 30); err != nil {
		t.Fatal(err)
	}
	machine, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sealed := SealMetrics(m)

	if _, err := Restore(p.Source(), cfg, sealed); !errors.Is(err, ErrSnapshotKind) {
		t.Errorf("Restore of sealed metrics: %v, want ErrSnapshotKind", err)
	}
	if _, err := OpenMetrics(machine, 4); !errors.Is(err, ErrSnapshotKind) {
		t.Errorf("OpenMetrics of a machine snapshot: %v, want ErrSnapshotKind", err)
	}
	for want, blob := range map[BlobKind][]byte{BlobMachine: machine, BlobMetrics: sealed} {
		if v, k, ok := IsSnapshot(blob); !ok || v != SnapshotFormatVersion || k != want {
			t.Errorf("IsSnapshot = (%d, %v, %v), want (%d, %v, true)", v, k, ok, SnapshotFormatVersion, want)
		}
	}
}

// TestOpenMetricsRejectsDamage: every way a stored blob can be wrong is an
// error, so the caller falls back to simulating.
func TestOpenMetricsRejectsDamage(t *testing.T) {
	sealed := SealMetrics(filledMetrics(t, 4))
	mutated := func(f func([]byte)) []byte {
		c := append([]byte(nil), sealed...)
		f(c)
		return c
	}
	payload := sealed[snapshotHeaderLen : len(sealed)-4]
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": sealed[:len(sealed)/2],
		"magic":     mutated(func(b []byte) { b[0] = 'X' }),
		"payload":   mutated(func(b []byte) { b[len(b)/2] ^= 0x40 }),
		"crc":       mutated(func(b []byte) { b[len(b)-1] ^= 0x01 }),
		"trailing":  seal(BlobMetrics, append(append([]byte(nil), payload...), 0)),
		"short":     seal(BlobMetrics, payload[:len(payload)-1]),
		"count":     seal(BlobMetrics, []byte{0xfe, 0xff, 0xff, 0xff, 0x0f}), // a core count the payload cannot hold
	}
	for name, bad := range cases {
		if _, err := OpenMetrics(bad, 4); err == nil {
			t.Errorf("%s: OpenMetrics accepted the blob", name)
		}
	}
	version := mutated(func(b []byte) { binary.LittleEndian.PutUint16(b[4:], SnapshotFormatVersion+1) })
	if _, err := OpenMetrics(version, 4); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("another format version: %v, want ErrSnapshotVersion", err)
	}
	if _, err := OpenMetrics(sealed, 16); err == nil {
		t.Error("OpenMetrics accepted a 4-core run's metrics for a 16-core config")
	}
}

package recycle

import (
	"runtime/debug"
	"sync"
	"testing"
)

// TestRecycledEntryComesBackBySize: a Put entry is handed to the next Get of
// its size, contents untouched, and to no Get of another size.
func TestRecycledEntryComesBackBySize(t *testing.T) {
	if Lossy {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the list
	var l List[[]int]
	if l.Get(8) != nil {
		t.Fatal("empty list handed out an entry")
	}
	s := make([]int, 8)
	s[3] = 42
	l.Put(8, &s)
	if l.Get(16) != nil {
		t.Fatal("Get(16) took the entry filed under 8")
	}
	got := l.Get(8)
	if got != &s || (*got)[3] != 42 {
		t.Fatalf("Get(8) after Put: same entry %v", got == &s)
	}
	if l.Get(8) != nil {
		t.Fatal("one Put satisfied two Gets")
	}
	l.Put(8, nil) // ignored
	if l.Get(8) != nil {
		t.Fatal("Put(nil) entered the list")
	}
}

// TestRecycledEntriesExclusiveUnderConcurrency: no two goroutines ever hold
// the same entry. Each stamps what it takes, works, and checks the stamp
// survived before giving the entry back; the race detector catches the
// unsynchronised write a shared array would mean.
func TestRecycledEntriesExclusiveUnderConcurrency(t *testing.T) {
	var l List[[]int]
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := 32 << (i % 3)
				b := l.Get(n)
				if b == nil {
					s := make([]int, n)
					b = &s
				}
				s := *b
				if len(s) != n {
					t.Errorf("Get(%d) returned %d elements", n, len(s))
					return
				}
				for j := range s {
					s[j] = g
				}
				for j := range s {
					if s[j] != g {
						t.Errorf("goroutine %d found %d in an entry it owns", g, s[j])
						return
					}
				}
				l.Put(n, b)
			}
		}(g)
	}
	wg.Wait()
}

// Package recycle is the free list behind the simulator's large backing
// arrays (cache frames, NoC link rings, DRAM bandwidth rings). A sweep
// builds hundreds of short-lived systems of a handful of geometries; making
// and zeroing ~7 MB for each one cost more than restoring a checkpoint into
// it. A layer returns its arrays here when a run ends and takes them back
// when the next system of that geometry is built.
//
// A list never cleans what it holds. Whoever takes an array owns making it
// fit for use — zeroing it, or overwriting every element from a snapshot —
// so storage returned in any state (a finished run, a half-restored system)
// cannot leak into a later build, and storage that is about to be
// overwritten in full is not cleared first.
package recycle

import "sync"

// List is a free list of *T filed under a size, safe for concurrent use. T
// is whatever holds a layer's arrays — a slice, or a struct of parallel
// slices — and the size is the one number that decides whether one T can
// stand in for another (its length). Entries travel as pointers so that
// filing one allocates nothing; a holder keeps the pointer it was given
// beside the arrays and hands the same pointer back. The zero value is an
// empty list. Each size is backed by a sync.Pool, so the garbage collector
// bounds what an idle process retains and there is nothing to size or
// switch off.
type List[T any] struct {
	bySize sync.Map // int -> *sync.Pool of *T
}

// Get returns an entry filed under size n, holding whatever its last user
// left in it, or nil when there is none and the caller must make its own.
func (l *List[T]) Get(n int) *T {
	if p, ok := l.bySize.Load(n); ok {
		x, _ := p.(*sync.Pool).Get().(*T)
		return x
	}
	return nil
}

// Put files x under size n; a nil x is ignored. The caller must not touch
// *x afterwards: the next Get(n) may hand it to another goroutine.
func (l *List[T]) Put(n int, x *T) {
	if x == nil {
		return
	}
	p, ok := l.bySize.Load(n)
	if !ok {
		p, _ = l.bySize.LoadOrStore(n, new(sync.Pool))
	}
	p.(*sync.Pool).Put(x)
}

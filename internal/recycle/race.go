//go:build race

package recycle

// Lossy reports whether Put may drop what it is handed. Under the race
// detector sync.Pool discards a quarter of all Puts at random, to shake out
// code that depends on reuse; tests that count reuse skip when it is set.
const Lossy = true

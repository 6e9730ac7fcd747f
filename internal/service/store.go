package service

import (
	"github.com/impsim/imp/api"
	"github.com/impsim/imp/internal/castore"
	"github.com/impsim/imp/internal/jobkey"
)

// ResultKey derives the content address of a job's result (internal/jobkey,
// which the improuter front-end also hashes onto its backend ring).
func ResultKey(spec api.JobSpec) (string, error) {
	return jobkey.ResultKey(spec)
}

// resultStore is what the Service uses of its result store, a *castore.Store
// over Config.ResultsDir: key -> canonical result bytes. It is an interface
// only so that a test can park a put mid-flight.
type resultStore interface {
	Get(key, dir string) ([]byte, bool)
	Put(key, dir string, data []byte)
	Keys(dir string) []string
	Stats() castore.Stats
}

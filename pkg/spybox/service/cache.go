// Content addresses for results. Results are a pure function of
// (seed, scale, arch, experiment) — the determinism the golden tests
// pin — so a duplicate submission can be answered with stored bytes
// instead of a re-simulation. The stored bytes are the done jobs'
// records: the job store indexes their results by these keys (see
// Store.Cached), so hits are shared by every process on one store and
// survive restarts, and deleting a job's record removes its entries.
// Parallel is deliberately not part of the key: it changes wall time,
// never results. The schema version is part of the key so a build that
// changes the report layout can never serve a stale shape, and the
// model version so a build whose simulator draws different numbers
// never serves another's values.

package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

// CacheKey addresses one experiment result by content: the report
// schema version, the simulator's model version, every Config field
// results depend on, and the experiment ID. Callers pass normalized
// values (defaulted seed, canonical scale spelling, resolved profile
// name) so equivalent specs share an entry.
func CacheKey(seed uint64, scale, arch, experiment string) string {
	return cacheKey(spybox.ModelVersion, seed, scale, arch, experiment)
}

// cacheKey is CacheKey under the given model version.
func cacheKey(model string, seed uint64, scale, arch, experiment string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s\x00%s\x00%s", report.Schema, model, seed, scale, arch, experiment)
	return hex.EncodeToString(h.Sum(nil))
}

package core

// The engine once memoised semantic expansions in an LRU; it saved no
// CPU on any benchmark workload and cost peak RSS, so it was deleted.
// These identifiers remain only because the separate benchmark/ module
// still names them: delete this file together with those references.

// Deprecated: the expansion LRU is gone. Last caller: benchmark/replay.go.
const DefaultExpansionCacheSize = 1024

// WithExpansionCache does nothing.
//
// Deprecated: the expansion LRU is gone. Last callers: benchmark/oracle.go
// and benchmark/replay.go.
func WithExpansionCache(int) Option { return func(*Engine) {} }

// benchCompatStats holds the LRU counters benchmark/metrics.go still
// reads from Stats.
type benchCompatStats struct {
	// Deprecated: always 0. Last reader: benchmark/metrics.go.
	ExpansionHits uint64
	// Deprecated: always 0. Last reader: benchmark/metrics.go.
	ExpansionMisses uint64
}

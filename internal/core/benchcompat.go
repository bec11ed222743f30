package core

// The engine once memoised semantic expansions in an LRU, and its
// matcher once cached compiled plans; neither saved CPU on any benchmark
// workload and both cost peak RSS, so both were deleted. These
// identifiers remain only because the separate benchmark/ module still
// names them: delete this file together with those references.

// Deprecated: the expansion LRU is gone. Last caller: benchmark/replay.go.
const DefaultExpansionCacheSize = 1024

// WithExpansionCache does nothing.
//
// Deprecated: the expansion LRU is gone. Last callers: benchmark/oracle.go
// and benchmark/replay.go.
func WithExpansionCache(int) Option { return func(*Engine) {} }

// benchCompatStats holds the LRU and plan-cache counters
// benchmark/metrics.go still reads from Stats.
type benchCompatStats struct {
	// Deprecated: always 0. Last reader: benchmark/metrics.go.
	ExpansionHits uint64
	// Deprecated: always 0. Last reader: benchmark/metrics.go.
	ExpansionMisses uint64
	// Deprecated: always 0. Last reader: benchmark/metrics.go.
	PlanCacheHits uint64
	// Deprecated: always 0. Last reader: benchmark/metrics.go.
	PlanCacheMisses uint64
}

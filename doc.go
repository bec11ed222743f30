// Package stopss is a from-scratch Go reproduction of "S-ToPSS: Semantic
// Toronto Publish/Subscribe System" (Petrovic, Burcea, Jacobsen — VLDB
// 2003).
//
// The public surface lives in the internal packages (this is a research
// reproduction laid out as a self-contained module):
//
//   - internal/message   — events, subscriptions, predicates
//   - internal/matching  — naive / counting [1][4] / tree matchers
//   - internal/semantic  — synonyms, concept hierarchy, mapping functions
//   - internal/ontology  — the ODL ontology language and compiler
//   - internal/core      — the S-ToPSS engine (Figure 1)
//   - internal/broker    — the pub/sub event dispatcher
//   - internal/overlay   — multi-broker federation (covering-based
//     subscription routing over TCP)
//   - internal/notify    — TCP/UDP/SMTP/SMS notification engine (Figure 2)
//   - internal/webapp    — demonstration web application (Figure 2)
//   - internal/workload  — workload generator (paper §4)
//
// See README.md for a quickstart, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the reproduction results. The end-to-end benchmark
// runs a real stopss-server (benchmark/README.md); the diagnostic
// benchmarks in bench_test.go regenerate the per-subsystem tables:
//
//	bash benchmark/run.sh
//	go test -run '^$' -bench=. -benchmem
package stopss

// The benchmark is a module of its own so that it builds from its own
// directory; the path prefix stopss/ is what lets it import
// stopss/internal/... (the oracle, the replay pipeline and the TCP sink).
module stopss/benchmark

go 1.24

require stopss v0.0.0

replace stopss => ../

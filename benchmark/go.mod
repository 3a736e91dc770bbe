// The benchmark is a module of its own so that it builds apart from the
// engine; the replace directive points at the engine it measures.
module batchdb/benchmark

go 1.22

require batchdb v0.0.0

replace batchdb => ../

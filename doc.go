// Package repro is a reproduction of "Explicit Platform Descriptions for
// Heterogeneous Many-Core Architectures" (Sandrieser, Benkner, Pllana; IPDPS
// Workshops 2011): a Platform Description Language (PDL) with its
// hierarchical Master/Hybrid/Worker machine model, an XML codec, typed
// property schemas, a query API, automatic descriptor generation, the
// Cascabel source-to-source translator for annotated task-based programs,
// and a StarPU-like heterogeneous task runtime with both a real goroutine
// execution engine and a calibrated discrete-event simulator standing in for
// the paper's GPU testbed.
//
// See DESIGN.md for the system inventory and per-experiment index,
// EXPERIMENTS.md for paper-vs-measured results, and the examples/ directory
// for runnable end-to-end programs. cmd/pdlbench regenerates the paper's
// Figure 5 and the ablation tables; benchmark/ (bash benchmark/run.sh) is the
// one pipeline that records and compares performance numbers.
package repro

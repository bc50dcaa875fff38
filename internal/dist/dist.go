// Package dist is the distributed sweep subsystem: it shards the cells of
// an experiment campaign (the "sweep" meta-scenario, internal/scenario)
// across worker processes — local subprocesses speaking newline-delimited
// JSON over stdin/stdout, or remote daemons speaking the same messages over
// HTTP — and merges the per-cell result envelopes strictly in grid order,
// so the combined report is byte-identical to a single-process sweep at any
// worker count, shard size, or completion order.
//
// This is the step the paper's programme calls exploration at scale
// (§5.3 C15–C16): campaigns over large parameter spaces, not single runs.
// Three prior properties make it a thin layer rather than a new engine:
//
//   - Cells are self-contained. scenario.ExpandSweepDocument produces, for
//     every cell, a complete scenario document (assignments applied, seed
//     written in) plus its canonical coordinate key — a worker needs no
//     context beyond the cell itself.
//   - Seeds are coordinate-stable. scenario.DeriveSeed hashes the cell key,
//     never an execution index, so sharding cannot reshuffle seeds.
//   - The merge is shared code. The coordinator hands the gathered
//     envelopes, ordered by cell index, to scenario.CombineSweep — the very
//     function the in-process sweep uses — so report bytes cannot drift
//     between the two paths.
//
// The moving parts:
//
//   - Coordinator (coordinator.go): expands the sweep document, partitions
//     the cell list into contiguous work units (partition.go), hands units
//     to workers on demand, retries failed cells with a bounded per-cell
//     budget, reassigns the units of lost workers, speculatively
//     re-dispatches straggler units to idle workers at the campaign tail,
//     and checkpoints completed cells so an interrupted campaign resumes
//     without recomputation (checkpoint.go).
//   - Worker (worker.go): the execution side. Local runs cells in-process;
//     Subprocess drives one `mcsim -worker` child over pipes; HTTP
//     (http.go) posts units to the `mcsweepd` daemon and streams results
//     back.
//   - Protocol (protocol.go): WorkUnit in, one CellResult per cell out —
//     identical messages on pipes and on HTTP, so every transport is
//     exercised by the same tests.
package dist

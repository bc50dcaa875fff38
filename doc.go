// Package mcs is a toolkit for the science, design, and engineering of
// computer ecosystems — a full Go reproduction of the research programme of
// "Massivizing Computer Systems: a Vision to Understand, Design, and
// Engineer Computer Ecosystems through and beyond Modern Distributed
// Systems" (Iosup et al., ICDCS 2018).
//
// The toolkit provides a high-throughput deterministic discrete-event
// simulation kernel (internal/sim) whose hot path layers four mechanisms —
// a pooled fire-and-forget event class, an O(1) immediate ring for
// zero-delay events, a timing wheel for the dense short-delay mix (proven
// byte-identical to the heap path by a differential fuzz harness), and
// one zero-allocation stream admission path for every pre-drawn timeline,
// all merged with a hand-rolled binary heap — a pluggable scenario registry
// (internal/scenario) that unifies every workload domain behind one
// interface and one runner, and, on top of them, every substrate the
// paper's programme requires: workload and trace models, a datacenter
// simulator with pluggable resource management and scheduling, a
// multi-datacenter federation with WAN-aware routing, autoscalers and SPEC
// elasticity metrics, correlated failure models, a serverless (FaaS)
// platform, an online-gaming ecosystem, a graph-processing platform with
// the six Graphalytics kernels, implicit social-network analyses, a
// PSD2-style banking pipeline, and the ecosystem core itself: layered
// reference architectures, composable non-functional properties, and the
// exhaustive Ecosystem Navigation solver.
//
// Every domain is a registered scenario kind — datacenter, faas, gaming,
// banking, graph, federation, autoscale, social — and the "sweep"
// meta-scenario turns any of them into an experiment campaign: one base
// document crossed over a parameter grid (array indices included, with
// repetitions summarized as mean ± 95% CI), run on a worker pool with
// derived per-cell seeds and one combined, byte-deterministic report (the
// OpenDC-style what-if portfolio). The distributed sweep subsystem
// (internal/dist) scales the same campaigns across processes and
// machines: a coordinator partitions the cell list into work units,
// hands them to subprocess workers (`mcsim -worker`) or remote HTTP
// daemons (cmd/mcsweepd), retries failed cells, checkpoints completed
// ones for resumable campaigns, and merges per-cell envelopes strictly in
// grid order — the combined report stays byte-identical to a
// single-process sweep at any fleet shape. The same contract holds inside
// a single run: scenarios that decompose into independent kernels —
// federation (one per site) and graph processing (one per algorithm) —
// shard them across a bounded pool (internal/par via sim.PartitionedRun,
// the "parallel" document field) with results merged in shard order, so
// output bytes are identical at any pool size.
//
// Workloads flow through a source layer (internal/workload Source:
// synthetic, inline, or a trace file resolved by the internal/trace
// format registry — GWA-style gwf plus the exact native mcw), so the
// trace-capable kinds (datacenter, faas, gaming, banking) replay an
// exported trace to a byte-identical result; see `mcsim -export-trace`.
//
// Every scenario document shares a typed header (scenario.Common — kind,
// seed, parallel, the workload block, and the failures overlay) that
// adapters embed instead of re-declaring. The "failures" section declares
// a correlated-failure model by distribution name (MTBF, repair, group
// size, rack bias — the paper's §2.2 problem statement); the overlay draws
// one deterministic timeline from the document seed (never the kernel RNG)
// and each capacity-modeling kind (datacenter, federation, faas, gaming)
// applies the unavailability windows to its own resources, reporting
// availability, downtime, and SLO-violation metrics in the result
// envelope. Because the section rides the document schema, every failure
// parameter is a JSON-pointer sweep axis ("/failures/mtbf/mean") —
// resilience campaigns distribute like any other sweep with byte-identical
// merged reports; see examples/resilience/campaign.json. `mcsim -strict`
// re-parses any document against its kind's published schema and rejects
// misspelled fields by name.
//
// The observability layer (internal/obs) watches all of it without
// touching any of it: kernel dispatch telemetry behind a nil-by-default
// stats pointer (`mcsim -telemetry` attaches the counters to the result
// envelope's optional "telemetry" block), typed progress events from runs
// and campaigns (NDJSON via `mcsim -progress`, live over HTTP via
// `-progress-listen`, rendered by `mcsim -watch`), and a Prometheus-text
// `/metrics` plus opt-in pprof surface on the worker daemon. The contract
// is hard: observability reads, never writes — reports stay byte-identical
// with every feature enabled, and the disabled path is benchguard-gated.
//
// Start with `mcsim -scenario examples/quickstart/cluster.json` (the
// documents under examples/ are listed in examples/README.md), run any
// registered scenario with cmd/mcsim (-list enumerates the kinds, -sweep
// runs grid campaigns, -distributed shards them across worker processes
// and machines, -export-trace/-export-csv write replayable and plottable
// artifacts), run the paper's document-driven experiments (D1, D2, the F5
// keep-warm sweep) from examples/paper with cmd/mcsim, print the remaining
// figure and table experiments with cmd/mcsbench, and see DESIGN.md for
// the architecture and system inventory.
package mcs

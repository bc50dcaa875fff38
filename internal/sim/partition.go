package sim

// Intra-run parallelism: a scenario whose state factors into independent
// shards (federation sites, graph-algorithm runs, interaction-free gaming
// zones) can execute those shards as concurrent sub-simulations instead of
// one long single-threaded kernel. PartitionedRun is the shared helper: it
// pins the per-shard seed law and routes the fan-out through the
// repository's one ordered-parallel pool (internal/par), so every caller
// inherits the same determinism argument — shard results depend only on
// (seed, shard index), and the merge order is the shard order, so the
// output bytes are identical at any pool size.

import "mcs/internal/par"

// PartitionedRun executes shards independent sub-simulations on a bounded
// worker pool and returns the per-shard results in shard order. Each shard
// runs fn on its own fresh kernel seeded seed+int64(shard) — the per-shard
// seed law the federation's sites have always used — so a shard's result is
// a pure function of the base seed and its index, never of pool size,
// scheduling, or sibling shards.
//
// workers follows par.Workers: non-positive defaults to GOMAXPROCS, and 1
// runs the shards inline in index order (the sequential behavior the pool
// generalizes). The error surfaced is the lowest-index shard error; see
// par.MapOrdered. A shard whose kernel stopped on the event budget fails
// with its Err, so the run fails with it.
//
// Shard functions must not share mutable state (that is what makes them
// shards); read-only structures such as a pre-generated graph are safe to
// share. Callers needing kernel options build their own kernels inside fn,
// ignore the provided one, and return their kernel's Err themselves.
func PartitionedRun[T any](shards, workers int, seed int64, fn func(shard int, k *Kernel) (T, error)) ([]T, error) {
	return par.MapOrdered(shards, workers, func(i int) (T, error) {
		k := New(seed + int64(i))
		out, err := fn(i, k)
		if err == nil {
			err = k.Err()
		}
		return out, err
	})
}

// Command perfbench is the repository's benchmark. It times four workloads
// end to end through the public entry points of internal/scenario and
// internal/dist, checks every report, and in a separate traced run times
// each call into a layer from here, outside the program under test.
//
// Run it from the repository root through the wrapper, which builds this
// module into .bench_build and executes it:
//
//	bash perfbench/run.sh --workload clearing --seed 1 --seconds 60 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
// metrics; the benchmark refuses to print a metric set that differs from
// the declared one. The line before it is the host record.
//
// One process drives the load. Every iteration of a workload runs in a
// fresh child process of this binary (GOMAXPROCS=1), so the program under
// test keeps at most one core busy, starts cold, and reports its own peak
// RSS. Reported values are medians over the iterations of one run.
//
// Other modes:
//
//	--selfcheck            run every workload once on --seed and once on a
//	                       second seed derived from it, checking reports
//	--out FILE             also write the result set (host record, result,
//	                       per-iteration samples) to FILE
//	--compare A,B          compare two result sets; refuses when their host
//	                       records differ
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		role      = flag.String("role", "", "internal: child (one iteration) or worker (dist stdio worker)")
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 1, "workload seed, written into the generated documents")
		seconds   = flag.Int("seconds", 60, "how long one run measures")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out       = flag.String("out", "", "also write the result set to this file")
		compare   = flag.String("compare", "", "compare two result-set files A,B and exit")
		selfcheck = flag.Bool("selfcheck", false, "run every workload once on --seed and on a second seed")
	)
	flag.Parse()

	var err error
	switch {
	case *role == "worker":
		err = serveWorker()
	case *role == "child":
		err = runChild(*name, *trace == 1)
	case *role != "":
		err = fmt.Errorf("unknown role %q", *role)
	case *compare != "":
		err = compareResultSets(*compare)
	case *selfcheck:
		err = runSelfcheck(*seed)
	default:
		err = runBench(*name, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

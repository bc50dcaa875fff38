// Serverless image pipeline (paper §6.5, Figure 5): an image-processing
// workflow — the paper's own FaaS example — executed on the simulated
// four-layer platform. The example contrasts keep-warm pool sizes, showing
// the cold-start tail-latency/cost trade-off.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"mcs/internal/faas"
	"mcs/internal/sim"
	"mcs/internal/stats"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	functions := []faas.Function{
		{Name: "ingest", Exec: stats.Truncate{D: stats.LogNormal{Mu: -2.5, Sigma: 0.5}, Lo: 0.01, Hi: 1}, ColdStart: time.Second, MemoryMB: 128},
		{Name: "resize", Exec: stats.Truncate{D: stats.LogNormal{Mu: -1.5, Sigma: 0.6}, Lo: 0.05, Hi: 5}, ColdStart: 2 * time.Second, MemoryMB: 512},
		{Name: "translate", Exec: stats.Truncate{D: stats.LogNormal{Mu: -0.5, Sigma: 0.7}, Lo: 0.1, Hi: 20}, ColdStart: 4 * time.Second, MemoryMB: 2048},
		{Name: "store", Exec: stats.Truncate{D: stats.LogNormal{Mu: -2.8, Sigma: 0.4}, Lo: 0.01, Hi: 1}, ColdStart: time.Second, MemoryMB: 128},
	}
	pipeline := faas.Workflow{
		Name: "image-translation",
		Stages: [][]string{
			{"ingest"},
			{"resize", "translate"}, // parallel stage
			{"store"},
		},
	}

	fmt.Println("keep-warm  workflows  mean-makespan  cold-starts  instance-s")
	for _, keepWarm := range []int{0, 1, 2} {
		k := sim.New(11)
		platform, err := faas.NewPlatformOn(k, faas.Config{
			IdleTimeout: 2 * time.Minute,
			KeepWarm:    keepWarm,
		}, functions)
		if err != nil {
			return err
		}
		// Sparse user uploads over two hours (cold-start territory).
		r := rand.New(rand.NewSource(11))
		var makespans []float64
		coldStarts := 0
		count := 0
		var at time.Duration
		for at < 2*time.Hour {
			at += time.Duration(r.ExpFloat64() * 3 * float64(time.Minute))
			err := platform.SubmitWorkflow(pipeline, at, func(rec faas.WorkflowRecord) {
				makespans = append(makespans, rec.Makespan().Seconds())
				coldStarts += rec.ColdStarts
				count++
			})
			if err != nil {
				return err
			}
		}
		res := platform.Drain()
		if err := k.Err(); err != nil {
			return err
		}
		fmt.Printf("%9d  %9d  %13s  %11d  %10.0f\n",
			keepWarm, count,
			time.Duration(stats.Mean(makespans)*float64(time.Second)).Round(time.Millisecond),
			coldStarts, res.InstanceSeconds)
	}
	fmt.Println("\nreading: each keep-warm instance removes cold starts from the critical")
	fmt.Println("path but bills idle instance-seconds (paper §6.5, experiment F5).")
	return nil
}

package opendc

import (
	"encoding/json"
	"testing"

	"mcs/internal/sim"
)

// cellDoc is one cell of the perfbench campaign sweep (its base document):
// a one-day horizon, EASY backfilling under best fit, and failures.
const cellDoc = `{"kind": "datacenter", "machines": 16, "class": "commodity", "rackSize": 16,
  "workload": {"jobs": 60, "pattern": "bursty", "shape": "bag"},
  "scheduler": {"queue": "fcfs", "placement": "bestfit", "mode": "easy"},
  "failures": {"mtbf": {"dist": "weibull", "shape": 0.6, "mean": 14400}, "repair": {"dist": "lognormal", "mean": 600}},
  "horizonSeconds": 86400}`

// maxCellAllocsPerTask bounds a cell's allocations per task. Per-task
// state lives in columns allocated once per run and the completion
// handler is shared, so what is left per task is the kernel's
// cancelable completion event (one per attempt) plus the run's constant
// set-up spread over the tasks: 338 allocations for 237 tasks, 1.43 per
// task, with Go 1.24. A per-task map, closure or queue entry coming back
// adds at least one allocation per task and fails this.
const maxCellAllocsPerTask = 1.6

// TestCellAllocationsPerTask runs one campaign cell through RunOn and
// bounds its allocations per task.
func TestCellAllocationsPerTask(t *testing.T) {
	var cfg ScenarioJSON
	if err := json.Unmarshal([]byte(cellDoc), &cfg); err != nil {
		t.Fatal(err)
	}
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := sc.Workload.TaskCount()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunOn(sim.New(sc.Seed), sc); err != nil {
			t.Fatal(err)
		}
	})
	perTask := allocs / float64(tasks)
	t.Logf("%.0f allocations for %d tasks: %.2f per task", allocs, tasks, perTask)
	if perTask > maxCellAllocsPerTask {
		t.Errorf("%.2f allocations per task, want at most %.2f", perTask, maxCellAllocsPerTask)
	}
}

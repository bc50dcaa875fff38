package main

// The four workloads: the documents each one generates from the seed, the
// item it counts, and the correctness check its reports must pass. Why
// each workload was chosen, and which per-layer metric should move which
// end-to-end metric on it, is in README.md.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"mcs/internal/scenario"

	// Scenario kinds the workloads run register themselves on import.
	_ "mcs/internal/banking"
	_ "mcs/internal/gaming"
	_ "mcs/internal/opendc"
	_ "mcs/internal/social"
)

// workload is one benchmark workload.
type workload struct {
	name string
	// item names what one unit of items_per_s is.
	item string
	// doc builds the workload's document; the seed is written into it and
	// the program under test receives nothing else.
	doc func(seed int64) []byte
	// check compares a finished run against its document and returns the
	// items the document asked for and the items the report shows done.
	// The campaign checks its fleet report in campaign.go instead.
	check func(s scenario.Scenario, doc []byte, res *scenario.Result) (expected, completed int, err error)
}

var workloads = []*workload{
	{
		name: "clearing",
		item: "transaction",
		doc: func(seed int64) []byte {
			return fmt.Appendf(nil, `{"kind": "banking", "seed": %d, "transactions": 300000, "instantShare": 0.5, "discipline": "edf"}`, seed)
		},
		check: func(_ scenario.Scenario, doc []byte, res *scenario.Result) (int, int, error) {
			var d struct{ Transactions int }
			if err := json.Unmarshal(doc, &d); err != nil {
				return 0, 0, err
			}
			return d.Transactions, int(res.Metrics["completed"]), nil
		},
	},
	{
		name: "world",
		item: "player served",
		doc: func(seed int64) []byte {
			return fmt.Appendf(nil, `{"kind": "gaming", "seed": %d, "zones": 24, "zoneCapacity": 100, "maxServersPerZone": 3, "arrivalPerHour": 5000, "diurnalAmp": 0.8, "moveEveryMinutes": 3, "horizonHours": 16}`, seed)
		},
		check: func(s scenario.Scenario, _ []byte, res *scenario.Result) (int, int, error) {
			wp, ok := s.(scenario.WorkloadProvider)
			if !ok {
				return 0, 0, fmt.Errorf("gaming scenario does not expose its workload")
			}
			w, err := wp.SourceWorkload()
			if err != nil {
				return 0, 0, err
			}
			return len(w.Jobs), int(res.Metrics["playersServed"]), nil
		},
	},
	{
		name: "social",
		item: "job",
		doc: func(seed int64) []byte {
			return fmt.Appendf(nil, `{"kind": "social", "seed": %d, "jobs": 200000, "users": 20000, "userSkew": 1.3, "pattern": "poisson", "windowSeconds": 60, "groupGapSeconds": 300}`, seed)
		},
		check: func(_ scenario.Scenario, doc []byte, res *scenario.Result) (int, int, error) {
			var d struct{ Jobs int }
			if err := json.Unmarshal(doc, &d); err != nil {
				return 0, 0, err
			}
			return d.Jobs, int(res.Metrics["jobs"]), nil
		},
	},
	{
		name: "campaign",
		item: "cell",
		// parallel 1 keeps the in-process reference run of the traced
		// check on one core; the fleet report does not depend on it.
		doc: func(seed int64) []byte {
			return fmt.Appendf(nil, `{"kind": "sweep", "seed": %d, "parallel": 1, "repetitions": 10,
  "base": {"kind": "datacenter", "machines": 16, "class": "commodity", "rackSize": 16,
    "workload": {"jobs": 60, "pattern": "bursty", "shape": "bag"},
    "scheduler": {"queue": "fcfs", "placement": "bestfit", "mode": "easy"},
    "failures": {"mtbf": {"dist": "weibull", "shape": 0.6, "mean": 14400}, "repair": {"dist": "lognormal", "mean": 600}},
    "horizonSeconds": 86400},
  "grid": {"/machines": [8, 16, 32, 64], "/scheduler/queue": ["fcfs", "sjf"],
    "/scheduler/placement": ["bestfit", "firstfit"], "/failures/mtbf/mean": [3600, 14400, 57600]}}`, seed)
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

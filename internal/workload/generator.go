package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"mcs/internal/stats"
)

// Shape selects the dependency structure of generated jobs.
type Shape int

// Job shapes. BagOfTasks has no dependencies; Chain is a linear pipeline;
// ForkJoin is a source, a parallel stage, and a sink; RandomDAG draws random
// layered precedence edges (the structure of scientific workflows such as
// Montage/Epigenomics the paper cites in §6.2).
const (
	BagOfTasks Shape = iota + 1
	Chain
	ForkJoin
	RandomDAG
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case BagOfTasks:
		return "bag-of-tasks"
	case Chain:
		return "chain"
	case ForkJoin:
		return "fork-join"
	case RandomDAG:
		return "random-dag"
	default:
		return "shape(" + strconv.Itoa(int(s)) + ")"
	}
}

// GeneratorConfig parameterizes synthetic workload generation. Zero fields
// take the documented defaults from DefaultGeneratorConfig.
type GeneratorConfig struct {
	Jobs    int
	Arrival ArrivalProcess
	Shape   Shape
	// TasksPerJob draws the number of tasks in each job.
	TasksPerJob stats.Dist
	// RuntimeSeconds draws per-task reference runtimes, in seconds.
	RuntimeSeconds stats.Dist
	// CoresPerTask draws per-task core demand.
	CoresPerTask stats.Dist
	// MemoryMBPerTask draws per-task memory demand.
	MemoryMBPerTask stats.Dist
	// Users is the size of the user population; submissions follow a Zipf
	// popularity over users (dominant-user phenomenon, paper C5 ref [107]).
	Users int
	// UserSkew is the Zipf exponent of the user popularity (>1).
	UserSkew float64
	// DeadlineFactor, when positive, assigns each job a deadline of
	// Submit + DeadlineFactor × CriticalPath.
	DeadlineFactor float64
}

// DefaultGeneratorConfig returns a configuration resembling published grid
// workload models ([39]): lognormal runtimes, geometric-ish job sizes, Zipf
// user popularity.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Jobs:            100,
		Arrival:         Poisson{RatePerHour: 60},
		Shape:           BagOfTasks,
		TasksPerJob:     stats.Truncate{D: stats.LogNormal{Mu: 1.2, Sigma: 0.8}, Lo: 1, Hi: 64},
		RuntimeSeconds:  stats.Truncate{D: stats.LogNormal{Mu: 4.5, Sigma: 1.0}, Lo: 1, Hi: 7200},
		CoresPerTask:    stats.Deterministic{Value: 1},
		MemoryMBPerTask: stats.Truncate{D: stats.LogNormal{Mu: 6.5, Sigma: 0.7}, Lo: 128, Hi: 16384},
		Users:           32,
		UserSkew:        1.6,
	}
}

// Generate produces a synthetic workload from cfg using r. The result is
// valid (Workload.Validate passes) and ordered by submit time.
func Generate(cfg GeneratorConfig, r *rand.Rand) (*Workload, error) {
	def := DefaultGeneratorConfig()
	if cfg.Jobs <= 0 {
		cfg.Jobs = def.Jobs
	}
	if cfg.Arrival == nil {
		cfg.Arrival = def.Arrival
	}
	if cfg.Shape == 0 {
		cfg.Shape = def.Shape
	}
	if cfg.TasksPerJob == nil {
		cfg.TasksPerJob = def.TasksPerJob
	}
	if cfg.RuntimeSeconds == nil {
		cfg.RuntimeSeconds = def.RuntimeSeconds
	}
	if cfg.CoresPerTask == nil {
		cfg.CoresPerTask = def.CoresPerTask
	}
	if cfg.MemoryMBPerTask == nil {
		cfg.MemoryMBPerTask = def.MemoryMBPerTask
	}
	if cfg.Users <= 0 {
		cfg.Users = def.Users
	}
	if cfg.UserSkew <= 1 {
		cfg.UserSkew = def.UserSkew
	}

	// One Zipf over the users serves every job: building it draws nothing
	// from r, so the draws match a fresh stats.Zipf per job. Each drawn
	// user's name is built once; the population itself may be far larger
	// than the jobs drawn from it.
	userDist := rand.NewZipf(r, cfg.UserSkew, 1, uint64(cfg.Users)-1)
	userNames := make(map[uint64]string)
	w := &Workload{Jobs: make([]Job, 0, cfg.Jobs)}
	var clock time.Duration
	var nextTask TaskID
	for i := 0; i < cfg.Jobs; i++ {
		clock += cfg.Arrival.Next(r)
		n := int(cfg.TasksPerJob.Sample(r))
		if n < 1 {
			n = 1
		}
		u := userDist.Uint64() + 1
		user, ok := userNames[u]
		if !ok {
			user = "user" + strconv.FormatUint(u, 10)
			userNames[u] = user
		}
		job := Job{
			ID:     JobID(i + 1),
			User:   user,
			Submit: clock,
			Tasks:  make([]Task, 0, n),
		}
		for t := 0; t < n; t++ {
			nextTask++
			rt := cfg.RuntimeSeconds.Sample(r)
			if rt < 0.001 {
				rt = 0.001
			}
			job.Tasks = append(job.Tasks, Task{
				ID:       nextTask,
				Job:      job.ID,
				Cores:    maxInt(1, int(cfg.CoresPerTask.Sample(r))),
				MemoryMB: maxInt(1, int(cfg.MemoryMBPerTask.Sample(r))),
				Runtime:  time.Duration(rt * float64(time.Second)),
			})
		}
		wireShape(&job, cfg.Shape, r)
		if cfg.DeadlineFactor > 0 {
			job.Deadline = job.Submit + time.Duration(cfg.DeadlineFactor*float64(job.CriticalPath()))
		}
		if err := job.Validate(); err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		w.Jobs = append(w.Jobs, job)
	}
	return w, nil
}

// wireShape adds dependency edges realizing the requested job shape.
func wireShape(job *Job, shape Shape, r *rand.Rand) {
	tasks := job.Tasks
	n := len(tasks)
	switch shape {
	case Chain:
		for t := 1; t < n; t++ {
			tasks[t].Deps = []TaskID{tasks[t-1].ID}
		}
	case ForkJoin:
		if n >= 3 {
			for t := 1; t < n-1; t++ {
				tasks[t].Deps = []TaskID{tasks[0].ID}
			}
			deps := make([]TaskID, n-2)
			for t := range deps {
				deps[t] = tasks[t+1].ID
			}
			tasks[n-1].Deps = deps
		} else if n == 2 {
			tasks[1].Deps = []TaskID{tasks[0].ID}
		}
	case RandomDAG:
		// Layered random DAG: each task depends on 1-3 distinct random
		// tasks from earlier positions, guaranteeing acyclicity. Deps are
		// listed in draw order.
		for t := 1; t < n; t++ {
			k := 1 + r.Intn(3)
			if k > t {
				k = t
			}
			deps := make([]TaskID, 0, k)
			for len(deps) < k {
				if id := tasks[r.Intn(t)].ID; !slices.Contains(deps, id) {
					deps = append(deps, id)
				}
			}
			tasks[t].Deps = deps
		}
	case BagOfTasks:
		// no edges
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Package workload models the units of work that flow through computer
// ecosystems: tasks, jobs, bags-of-tasks, and workflow DAGs, together with
// the stochastic arrival processes that drive them. It implements the
// workload-model substrate the paper builds on (§3.3 "statistical modeling of
// workloads", C3 "vicissitude", C7 "workloads can change drastically over
// both short and long periods of time").
package workload

import (
	"errors"
	"fmt"
	"time"
)

// TaskID identifies a task uniquely within a workload.
type TaskID int64

// JobID identifies a job uniquely within a workload.
type JobID int64

// Task is the smallest schedulable unit: it demands Cores cores and MemoryMB
// memory for Runtime of work measured on a reference-speed (1.0) machine.
// Dependencies (workflow edges) are task IDs within the same job that must
// complete before this task may start.
type Task struct {
	ID       TaskID
	Job      JobID
	Cores    int
	MemoryMB int
	// Runtime is the execution time on a reference machine of speed 1.0;
	// a machine of speed s executes the task in Runtime/s.
	Runtime time.Duration
	// Deps lists tasks (same job) that must finish before this one starts.
	Deps []TaskID
	// Accelerator, when set, constrains the task to machines whose class
	// carries the named accelerator (paper C4: "applications require
	// special hardware, such as GPUs").
	Accelerator string
}

// Job is a set of tasks submitted together at Submit by User. A job with no
// inter-task dependencies is a bag-of-tasks; with dependencies it is a
// workflow.
type Job struct {
	ID     JobID
	User   string
	Submit time.Duration
	Tasks  []Task
	// Deadline, when positive, is an absolute completion deadline (a
	// non-functional requirement attached to the job, paper C3).
	Deadline time.Duration
}

// TotalWork returns the sum of task runtimes weighted by core demand — the
// total core-seconds the job needs on reference hardware.
func (j *Job) TotalWork() time.Duration {
	var total time.Duration
	for _, t := range j.Tasks {
		total += time.Duration(int64(t.Runtime) * int64(t.Cores))
	}
	return total
}

// MaxParallelism returns the maximum number of tasks that can run
// concurrently, i.e. the maximum width over the levels of the dependency DAG.
// For bags-of-tasks this is the task count.
func (j *Job) MaxParallelism() int {
	levels := j.Levels()
	maxW := 0
	for _, level := range levels {
		if len(level) > maxW {
			maxW = len(level)
		}
	}
	return maxW
}

// Levels performs a topological leveling of the job's DAG: level 0 holds
// tasks without dependencies, level k tasks whose longest dependency chain
// has length k. It returns nil for cyclic (invalid) jobs.
func (j *Job) Levels() [][]TaskID {
	byID := make(map[TaskID]*Task, len(j.Tasks))
	for i := range j.Tasks {
		byID[j.Tasks[i].ID] = &j.Tasks[i]
	}
	level := make(map[TaskID]int, len(j.Tasks))
	var visit func(id TaskID, stack map[TaskID]bool) (int, bool)
	visit = func(id TaskID, stack map[TaskID]bool) (int, bool) {
		if l, ok := level[id]; ok {
			return l, true
		}
		if stack[id] {
			return 0, false // cycle
		}
		stack[id] = true
		defer delete(stack, id)
		t, ok := byID[id]
		if !ok {
			return 0, false // dangling dependency
		}
		l := 0
		for _, dep := range t.Deps {
			dl, ok := visit(dep, stack)
			if !ok {
				return 0, false
			}
			if dl+1 > l {
				l = dl + 1
			}
		}
		level[id] = l
		return l, true
	}
	maxL := 0
	for i := range j.Tasks {
		l, ok := visit(j.Tasks[i].ID, map[TaskID]bool{})
		if !ok {
			return nil
		}
		if l > maxL {
			maxL = l
		}
	}
	out := make([][]TaskID, maxL+1)
	for i := range j.Tasks {
		l := level[j.Tasks[i].ID]
		out[l] = append(out[l], j.Tasks[i].ID)
	}
	return out
}

// CriticalPath returns the length of the longest dependency chain measured in
// reference runtime — the minimum possible makespan with unlimited resources.
// It returns 0 for cyclic jobs.
func (j *Job) CriticalPath() time.Duration {
	byID := make(map[TaskID]*Task, len(j.Tasks))
	for i := range j.Tasks {
		byID[j.Tasks[i].ID] = &j.Tasks[i]
	}
	memo := make(map[TaskID]time.Duration, len(j.Tasks))
	var visit func(id TaskID, stack map[TaskID]bool) (time.Duration, bool)
	visit = func(id TaskID, stack map[TaskID]bool) (time.Duration, bool) {
		if v, ok := memo[id]; ok {
			return v, true
		}
		if stack[id] {
			return 0, false
		}
		stack[id] = true
		defer delete(stack, id)
		t, ok := byID[id]
		if !ok {
			return 0, false
		}
		var longest time.Duration
		for _, dep := range t.Deps {
			d, ok := visit(dep, stack)
			if !ok {
				return 0, false
			}
			if d > longest {
				longest = d
			}
		}
		total := longest + t.Runtime
		memo[id] = total
		return total, true
	}
	var cp time.Duration
	for i := range j.Tasks {
		v, ok := visit(j.Tasks[i].ID, map[TaskID]bool{})
		if !ok {
			return 0
		}
		if v > cp {
			cp = v
		}
	}
	return cp
}

// Validate checks structural invariants: unique task IDs, acyclic
// dependencies, positive runtimes and core demands.
func (j *Job) Validate() error {
	seen := make(map[TaskID]bool, len(j.Tasks))
	for _, t := range j.Tasks {
		if seen[t.ID] {
			return fmt.Errorf("job %d: duplicate task id %d", j.ID, t.ID)
		}
		seen[t.ID] = true
		if t.Runtime <= 0 {
			return fmt.Errorf("job %d task %d: non-positive runtime %v", j.ID, t.ID, t.Runtime)
		}
		if t.Cores <= 0 {
			return fmt.Errorf("job %d task %d: non-positive core demand %d", j.ID, t.ID, t.Cores)
		}
	}
	hasDeps := false
	for _, t := range j.Tasks {
		for _, dep := range t.Deps {
			if !seen[dep] {
				return fmt.Errorf("job %d task %d: dangling dependency %d", j.ID, t.ID, dep)
			}
			hasDeps = true
		}
	}
	// A cycle needs at least one dependency edge, so only jobs with edges
	// pay for the level computation.
	if hasDeps && j.Levels() == nil {
		return fmt.Errorf("job %d: dependency cycle", j.ID)
	}
	return nil
}

// Workload is an ordered collection of jobs (by submit time).
type Workload struct {
	Jobs []Job
}

// Validate validates every job and checks submit-time ordering.
func (w *Workload) Validate() error {
	var last time.Duration
	for i := range w.Jobs {
		if err := w.Jobs[i].Validate(); err != nil {
			return err
		}
		if w.Jobs[i].Submit < last {
			return errors.New("workload: jobs not ordered by submit time")
		}
		last = w.Jobs[i].Submit
	}
	return nil
}

// TaskCount returns the total number of tasks across all jobs.
func (w *Workload) TaskCount() int {
	n := 0
	for i := range w.Jobs {
		n += len(w.Jobs[i].Tasks)
	}
	return n
}

// Span returns the duration between the first and last job submission.
func (w *Workload) Span() time.Duration {
	if len(w.Jobs) == 0 {
		return 0
	}
	return w.Jobs[len(w.Jobs)-1].Submit - w.Jobs[0].Submit
}

// Users returns the distinct users in submission order of first appearance.
func (w *Workload) Users() []string {
	seen := make(map[string]bool)
	var users []string
	for i := range w.Jobs {
		u := w.Jobs[i].User
		if !seen[u] {
			seen[u] = true
			users = append(users, u)
		}
	}
	return users
}

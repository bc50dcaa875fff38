// Package workload models the units of work that flow through computer
// ecosystems: tasks, jobs, bags-of-tasks, and workflow DAGs, together with
// the stochastic arrival processes that drive them. It implements the
// workload-model substrate the paper builds on (§3.3 "statistical modeling of
// workloads", C3 "vicissitude", C7 "workloads can change drastically over
// both short and long periods of time").
package workload

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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

// CriticalPath returns the length of the longest dependency chain measured in
// reference runtime — the minimum possible makespan with unlimited resources.
// It returns 0 for invalid jobs (a cycle, a dangling dependency or a
// duplicate task ID).
func (j *Job) CriticalPath() time.Duration {
	order, start, dependents, err := j.dag()
	if err != nil {
		return 0
	}
	// ready[p] is when the last task p depends on finishes.
	ready := make([]time.Duration, len(j.Tasks))
	var cp time.Duration
	for _, p := range order {
		finish := ready[p] + j.Tasks[p].Runtime
		cp = max(cp, finish)
		for _, q := range dependents[start[p]:start[p+1]] {
			ready[q] = max(ready[q], finish)
		}
	}
	return cp
}

// dag resolves the job's dependencies to task positions and orders the
// positions topologically by Kahn's algorithm: a task is taken once every
// task it depends on has been, the tasks without dependencies first in
// position order, then each task as it becomes ready. The dependents of
// position p are dependents[start[p]:start[p+1]], in position order. dag
// fails on a duplicate task ID, a dependency naming no task of the job,
// and a cycle.
func (j *Job) dag() (order, start, dependents []int32, err error) {
	n := len(j.Tasks)
	byID := make([]int32, n) // positions in task-ID order
	for p := range byID {
		byID[p] = int32(p)
	}
	slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(j.Tasks[a].ID, j.Tasks[b].ID) })
	for k := 1; k < n; k++ {
		if id := j.Tasks[byID[k]].ID; id == j.Tasks[byID[k-1]].ID {
			return nil, nil, nil, fmt.Errorf("job %d: duplicate task id %d", j.ID, id)
		}
	}
	// Resolve every edge in task order and count each task's dependents.
	var tails []int32
	start = make([]int32, n+1)
	for p := range j.Tasks {
		t := &j.Tasks[p]
		for _, dep := range t.Deps {
			k, ok := slices.BinarySearchFunc(byID, dep, func(q int32, id TaskID) int { return cmp.Compare(j.Tasks[q].ID, id) })
			if !ok {
				return nil, nil, nil, fmt.Errorf("job %d task %d: dangling dependency %d", j.ID, t.ID, dep)
			}
			tails = append(tails, byID[k])
			start[byID[k]+1]++
		}
	}
	for p := range n {
		start[p+1] += start[p]
	}
	// waiting first serves as each task's fill cursor into dependents,
	// then counts the dependencies not yet taken.
	waiting := slices.Clone(start[:n])
	dependents = make([]int32, len(tails))
	e := 0
	for p := range j.Tasks {
		for range j.Tasks[p].Deps {
			d := tails[e]
			e++
			dependents[waiting[d]] = int32(p)
			waiting[d]++
		}
	}
	order = make([]int32, 0, n)
	for p := range j.Tasks {
		waiting[p] = int32(len(j.Tasks[p].Deps))
		if waiting[p] == 0 {
			order = append(order, int32(p))
		}
	}
	for h := 0; h < len(order); h++ {
		p := order[h]
		for _, q := range dependents[start[p]:start[p+1]] {
			if waiting[q]--; waiting[q] == 0 {
				order = append(order, q)
			}
		}
	}
	if len(order) < n {
		return nil, nil, nil, fmt.Errorf("job %d: dependency cycle", j.ID)
	}
	return order, start, dependents, nil
}

// Validate checks structural invariants: unique task IDs, dependencies on
// tasks of the same job, no dependency cycle, positive runtimes and core
// demands.
func (j *Job) Validate() error {
	simple := true // no dependencies, task IDs strictly increasing
	for p, t := range j.Tasks {
		if t.Runtime <= 0 {
			return fmt.Errorf("job %d task %d: non-positive runtime %v", j.ID, t.ID, t.Runtime)
		}
		if t.Cores <= 0 {
			return fmt.Errorf("job %d task %d: non-positive core demand %d", j.ID, t.ID, t.Cores)
		}
		if len(t.Deps) > 0 || (p > 0 && t.ID <= j.Tasks[p-1].ID) {
			simple = false
		}
	}
	// Generators and trace readers emit the IDs in order, so a job
	// without dependencies is checked without building its DAG.
	if simple {
		return nil
	}
	_, _, _, err := j.dag()
	return err
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

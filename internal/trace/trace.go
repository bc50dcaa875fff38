// Package trace implements a Grid-Workloads-Archive-style trace format
// (paper ref [139], C16: "tools and instruments to gather valuable ...
// operational traces ... through artifact-repositories"). Traces serialize
// workloads so that experiments are replayable and shareable — the
// reproducibility instrument principle P8 calls for.
//
// The on-disk format (.gwf, "grid workload format") is line-oriented text:
// '#'-prefixed comment/header lines followed by one whitespace-separated
// record per task:
//
//	jobID taskID submitSec runtimeSec cores memoryMB user deps
//
// where deps is a comma-separated list of task IDs or "-" when empty.
package trace

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"mcs/internal/stats"
	"mcs/internal/workload"
)

// ErrBadRecord reports a malformed trace line.
var ErrBadRecord = errors.New("trace: malformed record")

// Write serializes w in GWF format.
func Write(out io.Writer, w *workload.Workload) error {
	bw := bufio.NewWriter(out)
	fmt.Fprintln(bw, "# MCS grid workload format v1")
	fmt.Fprintln(bw, "# jobID taskID submitSec runtimeSec cores memoryMB user deps")
	for i := range w.Jobs {
		j := &w.Jobs[i]
		for _, t := range j.Tasks {
			deps := "-"
			if len(t.Deps) > 0 {
				parts := make([]string, len(t.Deps))
				for k, d := range t.Deps {
					parts[k] = strconv.FormatInt(int64(d), 10)
				}
				deps = strings.Join(parts, ",")
			}
			user := j.User
			if user == "" {
				user = "unknown"
			}
			fmt.Fprintf(bw, "%d %d %.3f %.3f %d %d %s %s\n",
				j.ID, t.ID, j.Submit.Seconds(), t.Runtime.Seconds(),
				t.Cores, t.MemoryMB, user, deps)
		}
	}
	return bw.Flush()
}

// Read parses a GWF trace back into a workload. Tasks of the same job are
// grouped; jobs are ordered by submit time.
func Read(in io.Reader) (*workload.Workload, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	jobs := make(map[workload.JobID]*workload.Job)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 8 {
			return nil, fmt.Errorf("%w: line %d has %d fields, want 8", ErrBadRecord, line, len(fields))
		}
		jobID, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d jobID: %v", ErrBadRecord, line, err)
		}
		taskID, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d taskID: %v", ErrBadRecord, line, err)
		}
		submit, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d submit: %v", ErrBadRecord, line, err)
		}
		runtime, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d runtime: %v", ErrBadRecord, line, err)
		}
		cores, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d cores: %v", ErrBadRecord, line, err)
		}
		memMB, err := strconv.Atoi(fields[5])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d memory: %v", ErrBadRecord, line, err)
		}
		user := fields[6]
		var deps []workload.TaskID
		if fields[7] != "-" {
			for _, part := range strings.Split(fields[7], ",") {
				d, err := strconv.ParseInt(part, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d deps: %v", ErrBadRecord, line, err)
				}
				deps = append(deps, workload.TaskID(d))
			}
		}
		j, ok := jobs[workload.JobID(jobID)]
		if !ok {
			j = &workload.Job{
				ID:     workload.JobID(jobID),
				User:   user,
				Submit: time.Duration(submit * float64(time.Second)),
			}
			jobs[workload.JobID(jobID)] = j
		}
		j.Tasks = append(j.Tasks, workload.Task{
			ID:       workload.TaskID(taskID),
			Job:      j.ID,
			Cores:    cores,
			MemoryMB: memMB,
			Runtime:  time.Duration(runtime * float64(time.Second)),
			Deps:     deps,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace read: %w", err)
	}
	w := &workload.Workload{Jobs: make([]workload.Job, 0, len(jobs))}
	for _, j := range jobs {
		w.Jobs = append(w.Jobs, *j)
	}
	slices.SortFunc(w.Jobs, func(a, b workload.Job) int {
		if c := cmp.Compare(a.Submit, b.Submit); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return w, nil
}

// Stats summarizes a trace the way GWA trace reports do.
type Stats struct {
	Jobs, Tasks, Users  int
	Span                time.Duration
	RuntimeSeconds      stats.Summary
	TasksPerJob         stats.Summary
	InterarrivalSeconds stats.Summary
	Burstiness          float64
	// TopUserShare is the fraction of jobs submitted by the most active
	// user (the dominant-user phenomenon, paper C5).
	TopUserShare float64
	// Vicissitude is the workload-drift index of [22] measured over
	// one-hour windows (0 = stationary).
	Vicissitude float64
}

// Analyze computes summary statistics of a workload/trace.
func Analyze(w *workload.Workload) Stats {
	var runtimes, sizes, gaps []float64
	var interarrivals []time.Duration
	byUser := make(map[string]int)
	for i := range w.Jobs {
		j := &w.Jobs[i]
		byUser[j.User]++
		sizes = append(sizes, float64(len(j.Tasks)))
		for _, t := range j.Tasks {
			runtimes = append(runtimes, t.Runtime.Seconds())
		}
		if i > 0 {
			gap := j.Submit - w.Jobs[i-1].Submit
			gaps = append(gaps, gap.Seconds())
			interarrivals = append(interarrivals, gap)
		}
	}
	top := 0
	for _, n := range byUser {
		if n > top {
			top = n
		}
	}
	s := Stats{
		Jobs:                len(w.Jobs),
		Tasks:               w.TaskCount(),
		Users:               len(byUser),
		Span:                w.Span(),
		RuntimeSeconds:      stats.Summarize(runtimes),
		TasksPerJob:         stats.Summarize(sizes),
		InterarrivalSeconds: stats.Summarize(gaps),
		Burstiness:          workload.BurstinessIndex(interarrivals),
	}
	if len(w.Jobs) > 0 {
		s.TopUserShare = float64(top) / float64(len(w.Jobs))
	}
	s.Vicissitude = workload.MeasureVicissitude(w, time.Hour).Index()
	return s
}

package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mcs/internal/stats"
)

func chainJob(n int) Job {
	j := Job{ID: 1, User: "u"}
	var prev TaskID
	for i := 1; i <= n; i++ {
		t := Task{ID: TaskID(i), Job: 1, Cores: 1, MemoryMB: 1, Runtime: time.Second}
		if prev != 0 {
			t.Deps = []TaskID{prev}
		}
		prev = t.ID
		j.Tasks = append(j.Tasks, t)
	}
	return j
}

// relaxedCriticalPath is the critical path of an acyclic job by repeated
// relaxation over the tasks in list order: after len(Tasks) rounds every
// task's finish time is its runtime after its latest dependency.
func relaxedCriticalPath(j *Job) time.Duration {
	finish := make(map[TaskID]time.Duration, len(j.Tasks))
	for range j.Tasks {
		for _, t := range j.Tasks {
			var ready time.Duration
			for _, dep := range t.Deps {
				ready = max(ready, finish[dep])
			}
			finish[t.ID] = ready + t.Runtime
		}
	}
	var cp time.Duration
	for _, f := range finish {
		cp = max(cp, f)
	}
	return cp
}

func TestJobCriticalPathChain(t *testing.T) {
	j := chainJob(5)
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if cp := j.CriticalPath(); cp != 5*time.Second {
		t.Errorf("chain critical path=%v, want 5s", cp)
	}
	// Listed last-first, the chain has the same path.
	slices.Reverse(j.Tasks)
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if cp := j.CriticalPath(); cp != 5*time.Second {
		t.Errorf("reversed chain critical path=%v, want 5s", cp)
	}
}

func TestJobCriticalPathForkJoin(t *testing.T) {
	j := Job{ID: 1, Tasks: []Task{
		{ID: 1, Cores: 1, MemoryMB: 1, Runtime: time.Second},
		{ID: 2, Cores: 1, MemoryMB: 1, Runtime: 2 * time.Second, Deps: []TaskID{1}},
		{ID: 3, Cores: 1, MemoryMB: 1, Runtime: 3 * time.Second, Deps: []TaskID{1}},
		{ID: 4, Cores: 1, MemoryMB: 1, Runtime: time.Second, Deps: []TaskID{2, 3}},
	}}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	// Critical path: 1 (1s) -> 3 (3s) -> 4 (1s) = 5s.
	if cp := j.CriticalPath(); cp != 5*time.Second {
		t.Errorf("critical path=%v, want 5s", cp)
	}
}

func TestJobValidateRejectsCycle(t *testing.T) {
	j := Job{ID: 1, Tasks: []Task{
		{ID: 1, Cores: 1, MemoryMB: 1, Runtime: time.Second, Deps: []TaskID{2}},
		{ID: 2, Cores: 1, MemoryMB: 1, Runtime: time.Second, Deps: []TaskID{1}},
	}}
	if err := j.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
	if j.CriticalPath() != 0 {
		t.Error("CriticalPath of cyclic job must be 0")
	}
}

func TestJobValidateRejectsBadFields(t *testing.T) {
	cases := []Job{
		{ID: 1, Tasks: []Task{{ID: 1, Cores: 1, MemoryMB: 1, Runtime: 0}}},
		{ID: 1, Tasks: []Task{{ID: 1, Cores: 0, MemoryMB: 1, Runtime: time.Second}}},
		{ID: 1, Tasks: []Task{
			{ID: 1, Cores: 1, MemoryMB: 1, Runtime: time.Second},
			{ID: 1, Cores: 1, MemoryMB: 1, Runtime: time.Second},
		}},
		{ID: 1, Tasks: []Task{{ID: 1, Cores: 1, MemoryMB: 1, Runtime: time.Second, Deps: []TaskID{9}}}},
	}
	for i, j := range cases {
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: invalid job accepted", i)
		}
	}
}

func TestTotalWorkWeightsCores(t *testing.T) {
	j := Job{Tasks: []Task{
		{ID: 1, Cores: 2, MemoryMB: 1, Runtime: 3 * time.Second},
		{ID: 2, Cores: 1, MemoryMB: 1, Runtime: 4 * time.Second},
	}}
	if got := j.TotalWork(); got != 10*time.Second {
		t.Errorf("TotalWork=%v, want 10s", got)
	}
}

func TestPoissonArrivalMeanRate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := Poisson{RatePerHour: 120} // mean gap 30s
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		total += p.Next(r)
	}
	mean := total / n
	if mean < 27*time.Second || mean > 33*time.Second {
		t.Errorf("mean inter-arrival %v, want ≈30s", mean)
	}
}

func TestMMPP2IsBurstierThanPoisson(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := &MMPP2{
		CalmRatePerHour:  10,
		BurstRatePerHour: 600,
		MeanCalm:         time.Hour,
		MeanBurst:        10 * time.Minute,
	}
	p := Poisson{RatePerHour: 60}
	gapsM := make([]time.Duration, 5000)
	gapsP := make([]time.Duration, 5000)
	for i := range gapsM {
		gapsM[i] = m.Next(r)
		gapsP[i] = p.Next(r)
	}
	bm, bp := BurstinessIndex(gapsM), BurstinessIndex(gapsP)
	if bm <= bp {
		t.Errorf("MMPP burstiness %v not greater than Poisson %v", bm, bp)
	}
	if bp < 0.8 || bp > 1.2 {
		t.Errorf("Poisson burstiness %v, want ≈1", bp)
	}
}

func TestDiurnalPeaksAtPeakHour(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := &Diurnal{BasePerHour: 100, Amplitude: 0.9, PeakHour: 14}
	counts := make([]int, 24)
	var clock time.Duration
	for clock < 14*24*time.Hour {
		gap := d.Next(r)
		clock += gap
		hour := int(clock.Hours()) % 24
		counts[hour]++
	}
	peakBucket := (counts[13] + counts[14] + counts[15]) / 3
	troughBucket := (counts[1] + counts[2] + counts[3]) / 3
	if peakBucket <= troughBucket {
		t.Errorf("peak-hour arrivals %d not above trough %d", peakBucket, troughBucket)
	}
}

func TestFixedInterval(t *testing.T) {
	f := FixedInterval{Interval: 7 * time.Second}
	if f.Next(nil) != 7*time.Second {
		t.Error("fixed interval wrong")
	}
}

func TestGenerateDefaultsAreValid(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	w, err := Generate(GeneratorConfig{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 100 {
		t.Errorf("jobs=%d, want default 100", len(w.Jobs))
	}
	if w.TaskCount() < 100 {
		t.Errorf("task count=%d suspiciously low", w.TaskCount())
	}
	if len(w.Users()) < 2 {
		t.Errorf("users=%d, want several", len(w.Users()))
	}
	if w.Span() <= 0 {
		t.Error("span must be positive")
	}
}

// checkShape reports how a generated job's dependencies differ from its
// shape's wiring, or "" when they match. A bag has no edges; a chain links
// each task to the one before it; a fork-join of n >= 3 tasks hangs every
// middle task off the first and joins them all into the last, and one of
// two tasks is a chain of two. Random DAGs are checked by Validate alone.
func checkShape(j *Job, shape Shape) string {
	tasks := j.Tasks
	n := len(tasks)
	want := func(i int) []TaskID {
		switch shape {
		case Chain:
			if i > 0 {
				return []TaskID{tasks[i-1].ID}
			}
		case ForkJoin:
			switch {
			case n == 2 && i == 1:
				return []TaskID{tasks[0].ID}
			case n >= 3 && i == n-1:
				mid := make([]TaskID, 0, n-2)
				for _, t := range tasks[1 : n-1] {
					mid = append(mid, t.ID)
				}
				return mid
			case n >= 3 && i > 0:
				return []TaskID{tasks[0].ID}
			}
		case RandomDAG:
			return tasks[i].Deps
		}
		return nil
	}
	for i := range tasks {
		if w := want(i); !slices.Equal(tasks[i].Deps, w) {
			return fmt.Sprintf("task %d deps %v, want %v", tasks[i].ID, tasks[i].Deps, w)
		}
	}
	return ""
}

func TestGenerateShapes(t *testing.T) {
	for _, shape := range []Shape{BagOfTasks, Chain, ForkJoin, RandomDAG} {
		r := rand.New(rand.NewSource(5))
		w, err := Generate(GeneratorConfig{
			Jobs:        20,
			Shape:       shape,
			TasksPerJob: stats.Uniform{Lo: 4, Hi: 12},
		}, r)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		for i := range w.Jobs {
			j := &w.Jobs[i]
			if err := checkShape(j, shape); err != "" {
				t.Errorf("%v job %d: %s", shape, j.ID, err)
			}
			if got, want := j.CriticalPath(), relaxedCriticalPath(j); got != want {
				t.Errorf("%v job %d: critical path %v, want %v", shape, j.ID, got, want)
			}
		}
		if shape.String() == "" {
			t.Error("empty shape name")
		}
	}
}

func TestGenerateDeadlines(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	w, err := Generate(GeneratorConfig{Jobs: 10, DeadlineFactor: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Jobs {
		j := &w.Jobs[i]
		if j.Deadline <= j.Submit {
			t.Errorf("job %d deadline %v not after submit %v", j.ID, j.Deadline, j.Submit)
		}
	}
}

// Property: generated workloads are always valid and deterministic per seed.
func TestGenerateProperty(t *testing.T) {
	prop := func(seed int64, jobs uint8) bool {
		n := int(jobs%50) + 1
		gen := func() *Workload {
			r := rand.New(rand.NewSource(seed))
			w, err := Generate(GeneratorConfig{Jobs: n, Shape: RandomDAG}, r)
			if err != nil {
				return nil
			}
			return w
		}
		w1, w2 := gen(), gen()
		if w1 == nil || w2 == nil {
			return false
		}
		if w1.Validate() != nil {
			return false
		}
		if len(w1.Jobs) != len(w2.Jobs) {
			return false
		}
		for i := range w1.Jobs {
			if w1.Jobs[i].Submit != w2.Jobs[i].Submit ||
				len(w1.Jobs[i].Tasks) != len(w2.Jobs[i].Tasks) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

func TestWorkloadValidateOrdering(t *testing.T) {
	w := Workload{Jobs: []Job{
		{ID: 1, Submit: 10 * time.Second, Tasks: []Task{{ID: 1, Cores: 1, MemoryMB: 1, Runtime: time.Second}}},
		{ID: 2, Submit: 5 * time.Second, Tasks: []Task{{ID: 2, Cores: 1, MemoryMB: 1, Runtime: time.Second}}},
	}}
	if err := w.Validate(); err == nil {
		t.Fatal("out-of-order submits accepted")
	}
}

// TestWorkloadValidateFindsBadDepsAmongDepFreeJobs checks that skipping the
// level computation for jobs without dependencies does not let a cycle or a
// dangling dependency through in a workload where most jobs have none.
func TestWorkloadValidateFindsBadDepsAmongDepFreeJobs(t *testing.T) {
	task := func(id TaskID, deps ...TaskID) Task {
		return Task{ID: id, Cores: 1, MemoryMB: 1, Runtime: time.Second, Deps: deps}
	}
	mixed := func(bad Job) Workload {
		return Workload{Jobs: []Job{
			{ID: 1, Tasks: []Task{task(1), task(2)}},
			{ID: 2, Tasks: []Task{task(3), task(4, 3)}},
			bad,
			{ID: 4, Tasks: []Task{task(8)}},
		}}
	}
	good := mixed(Job{ID: 3, Tasks: []Task{task(5), task(6)}})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid mixed workload rejected: %v", err)
	}
	cases := map[string]struct {
		job  Job
		want string
	}{
		"cycle":     {Job{ID: 3, Tasks: []Task{task(5, 7), task(6), task(7, 5)}}, "job 3: dependency cycle"},
		"self-loop": {Job{ID: 3, Tasks: []Task{task(5), task(6, 6)}}, "job 3: dependency cycle"},
		"dangling":  {Job{ID: 3, Tasks: []Task{task(5), task(6, 4)}}, "job 3 task 6: dangling dependency 4"},
	}
	for name, tc := range cases {
		w := mixed(tc.job)
		err := w.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %q", name, err, tc.want)
		}
	}
}

func BenchmarkGenerate1000Jobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(1))
		if _, err := Generate(GeneratorConfig{Jobs: 1000}, r); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEmpiricalArrivalPreservesDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	src, err := Generate(GeneratorConfig{
		Jobs: 400,
		Arrival: &MMPP2{
			CalmRatePerHour: 20, BurstRatePerHour: 600,
			MeanCalm: time.Hour, MeanBurst: 10 * time.Minute,
		},
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	emp := NewEmpirical(src)
	if emp == nil {
		t.Fatal("empirical process not built")
	}
	var gapsSrc, gapsEmp []time.Duration
	for i := 1; i < len(src.Jobs); i++ {
		gapsSrc = append(gapsSrc, src.Jobs[i].Submit-src.Jobs[i-1].Submit)
	}
	for i := 0; i < 2000; i++ {
		gapsEmp = append(gapsEmp, emp.Next(r))
	}
	// Burstiness (CV of gaps) must carry over from the source trace.
	bs, be := BurstinessIndex(gapsSrc), BurstinessIndex(gapsEmp)
	if be < bs*0.6 || be > bs*1.4 {
		t.Errorf("resampled burstiness %v far from source %v", be, bs)
	}
	// Replay: a workload generated from the empirical process validates.
	replay, err := Generate(GeneratorConfig{Jobs: 100, Arrival: emp}, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalNeedsTwoJobs(t *testing.T) {
	if NewEmpirical(&Workload{}) != nil {
		t.Error("empirical built from empty workload")
	}
	one := &Workload{Jobs: []Job{{ID: 1}}}
	if NewEmpirical(one) != nil {
		t.Error("empirical built from single job")
	}
}

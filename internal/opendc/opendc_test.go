package opendc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/failure"
	"mcs/internal/sched"
	"mcs/internal/workload"
)

func singleTaskWorkload() *workload.Workload {
	return &workload.Workload{Jobs: []workload.Job{{
		ID: 1, User: "u", Submit: 0,
		Tasks: []workload.Task{{ID: 1, Job: 1, Cores: 1, MemoryMB: 100, Runtime: 10 * time.Second}},
	}}}
}

func TestRunSingleTask(t *testing.T) {
	sc := &Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 1, dcmodel.ClassCommodity, 8),
		Workload: singleTaskWorkload(),
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d", res.Completed, res.Failed)
	}
	if res.Makespan != 10*time.Second {
		t.Errorf("makespan=%v, want 10s", res.Makespan)
	}
	if res.MeanWait != 0 {
		t.Errorf("wait=%v, want 0 on an idle cluster", res.MeanWait)
	}
	if res.EnergyKWh <= 0 {
		t.Errorf("energy=%v", res.EnergyKWh)
	}
}

func TestRunRejectsInvalidScenarios(t *testing.T) {
	if _, err := Run(&Scenario{}); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := Run(&Scenario{Cluster: dcmodel.NewHomogeneous("c", 1, dcmodel.ClassCommodity, 8)}); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestMachineSpeedScalesRuntime(t *testing.T) {
	fast := dcmodel.ClassCommodity
	fast.Speed = 2.0
	sc := &Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 1, fast, 8),
		Workload: singleTaskWorkload(),
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 5*time.Second {
		t.Errorf("makespan on 2x machine=%v, want 5s", res.Makespan)
	}
}

func TestDependenciesRespected(t *testing.T) {
	w := &workload.Workload{Jobs: []workload.Job{{
		ID: 1, User: "u",
		Tasks: []workload.Task{
			{ID: 1, Job: 1, Cores: 1, MemoryMB: 1, Runtime: 10 * time.Second},
			{ID: 2, Job: 1, Cores: 1, MemoryMB: 1, Runtime: 5 * time.Second, Deps: []workload.TaskID{1}},
			{ID: 3, Job: 1, Cores: 1, MemoryMB: 1, Runtime: 5 * time.Second, Deps: []workload.TaskID{1, 2}},
		},
	}}}
	sc := &Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 4, dcmodel.ClassCommodity, 8),
		Workload: w,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	byTask := map[workload.TaskID]TaskRecord{}
	for _, r := range res.Records {
		byTask[r.Task] = r
	}
	if byTask[2].Start < byTask[1].Finish {
		t.Errorf("task 2 started %v before dep finished %v", byTask[2].Start, byTask[1].Finish)
	}
	if byTask[3].Start < byTask[2].Finish {
		t.Errorf("task 3 started %v before dep finished %v", byTask[3].Start, byTask[2].Finish)
	}
	if res.Makespan != 20*time.Second {
		t.Errorf("chain makespan=%v, want 20s", res.Makespan)
	}
}

func TestQueueingUnderContention(t *testing.T) {
	// 1 machine × 16 cores; 32 single-core 10s tasks → two waves.
	tasks := make([]workload.Task, 32)
	for i := range tasks {
		tasks[i] = workload.Task{
			ID: workload.TaskID(i + 1), Job: 1, Cores: 1, MemoryMB: 1,
			Runtime: 10 * time.Second,
		}
	}
	sc := &Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 1, dcmodel.ClassCommodity, 8),
		Workload: &workload.Workload{Jobs: []workload.Job{{ID: 1, User: "u", Tasks: tasks}}},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 32 {
		t.Fatalf("completed=%d", res.Completed)
	}
	if res.Makespan != 20*time.Second {
		t.Errorf("two-wave makespan=%v, want 20s", res.Makespan)
	}
	if res.MeanWait <= 0 {
		t.Error("expected queueing delay under contention")
	}
}

// The headline F3/T3-C7 shape: EASY backfilling beats strict FCFS on a
// workload where a wide task blocks the head of the queue.
func TestEASYBackfillBeatsStrictFCFS(t *testing.T) {
	run := func(mode sched.QueueMode) *Result {
		// Machine: 16 cores. Long 8-core task running; wide 16-core task at
		// head; stream of small tasks behind it that could backfill.
		tasks := []workload.Task{
			{ID: 1, Job: 1, Cores: 8, MemoryMB: 1, Runtime: 100 * time.Second},
			{ID: 2, Job: 1, Cores: 16, MemoryMB: 1, Runtime: 10 * time.Second},
		}
		for i := 0; i < 20; i++ {
			tasks = append(tasks, workload.Task{
				ID: workload.TaskID(i + 3), Job: 1, Cores: 4, MemoryMB: 1,
				Runtime: 20 * time.Second,
			})
		}
		sc := &Scenario{
			Cluster:  dcmodel.NewHomogeneous("c", 1, dcmodel.ClassCommodity, 8),
			Workload: &workload.Workload{Jobs: []workload.Job{{ID: 1, User: "u", Tasks: tasks}}},
			Sched:    sched.Config{Mode: mode},
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	strict := run(sched.Strict)
	easy := run(sched.EASY)
	if easy.MeanWait >= strict.MeanWait {
		t.Errorf("EASY mean wait %v not below strict %v", easy.MeanWait, strict.MeanWait)
	}
	if easy.Makespan > strict.Makespan {
		t.Errorf("EASY makespan %v worse than strict %v", easy.Makespan, strict.Makespan)
	}
}

func TestFailuresRestartTasks(t *testing.T) {
	// The only machine fails 30 s into the task's 60 s run: the task must
	// restart and complete on the repaired machine.
	w := &workload.Workload{Jobs: []workload.Job{{
		ID: 1, User: "u",
		Tasks: []workload.Task{{ID: 1, Job: 1, Cores: 1, MemoryMB: 1, Runtime: 60 * time.Second}},
	}}}
	res, err := Run(&Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 1, dcmodel.ClassCommodity, 8),
		Workload: w,
		FailureSource: func(int, time.Duration, []string) ([]failure.Event, error) {
			return []failure.Event{{At: 30 * time.Second, Machines: []int{0}, Repair: time.Minute}}, nil
		},
		Horizon: 6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || len(res.Records) != 1 {
		t.Fatalf("completed=%d failed=%d records=%d, want the one task completed", res.Completed, res.Failed, len(res.Records))
	}
	if res.FailureRestarts < 1 {
		t.Fatalf("FailureRestarts = %d, want >= 1", res.FailureRestarts)
	}
	if got := res.Records[0].Attempts; got != res.FailureRestarts+1 {
		t.Errorf("attempts = %d after %d restarts, want restarts + 1", got, res.FailureRestarts)
	}
}

// TestUnsortedFailureTraceKeepsCallerOrder admits an out-of-order failure
// trace: it fires in time order, yet neither the source's slice nor the
// reported trace is reordered, and same-instant jobs still run in slice
// order.
func TestUnsortedFailureTraceKeepsCallerOrder(t *testing.T) {
	job := func(id int, submit time.Duration) workload.Job {
		return workload.Job{ID: workload.JobID(id), User: "u", Submit: submit, Tasks: []workload.Task{{
			ID: workload.TaskID(id), Job: workload.JobID(id), Cores: dcmodel.ClassCommodity.Cores, MemoryMB: 1, Runtime: time.Minute,
		}}}
	}
	w := &workload.Workload{Jobs: []workload.Job{job(1, 10*time.Minute), job(2, 10*time.Minute)}}
	// The later event comes first; the earlier one takes the machine down
	// across both jobs' runs, so it must fire first to delay them.
	trace := []failure.Event{
		{At: 5 * time.Hour, Machines: []int{0}, Repair: time.Minute},
		{At: 9 * time.Minute, Machines: []int{0}, Repair: 30 * time.Minute},
	}
	res, err := Run(&Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 1, dcmodel.ClassCommodity, 8),
		Workload: w,
		FailureSource: func(int, time.Duration, []string) ([]failure.Event, error) {
			return trace, nil
		},
		Horizon: 6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trace[0].At != 5*time.Hour || len(res.FailureEvents) != 2 || res.FailureEvents[0].At != 5*time.Hour {
		t.Fatalf("failure trace reordered: source %v, reported %v", trace, res.FailureEvents)
	}
	if a, b := res.Records[0].Start, res.Records[1].Start; a != 39*time.Minute || b != 40*time.Minute {
		t.Errorf("jobs started at %v and %v, want 39m then 40m (after the repair, in slice order)", a, b)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	mk := func() *Scenario {
		r := rand.New(rand.NewSource(5))
		w, err := workload.Generate(workload.GeneratorConfig{Jobs: 60}, r)
		if err != nil {
			t.Fatal(err)
		}
		return &Scenario{
			Cluster:  dcmodel.NewHomogeneous("c", 8, dcmodel.ClassCommodity, 8),
			Workload: w,
			Failures: failure.CorrelatedModel(time.Hour, 10*time.Minute, 3),
			Horizon:  12 * time.Hour,
			Seed:     7,
		}
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Completed != b.Completed ||
		a.MeanWait != b.MeanWait || a.SimulatedEvents != b.SimulatedEvents {
		t.Errorf("same-seed runs diverge: %+v vs %+v", a.Makespan, b.Makespan)
	}
}

// Scheduler safety property: conservation — every generated task ends up
// exactly once in completed or failed; starts never precede readiness.
func TestConservationProperty(t *testing.T) {
	prop := func(seed int64, jobsRaw, machinesRaw uint8) bool {
		jobs := int(jobsRaw%30) + 1
		machines := int(machinesRaw%6) + 1
		r := rand.New(rand.NewSource(seed))
		w, err := workload.Generate(workload.GeneratorConfig{
			Jobs:  jobs,
			Shape: workload.RandomDAG,
		}, r)
		if err != nil {
			return false
		}
		sc := &Scenario{
			Cluster:  dcmodel.NewHomogeneous("c", machines, dcmodel.ClassCommodity, 8),
			Workload: w,
			Seed:     seed,
		}
		res, err := Run(sc)
		if err != nil {
			return false
		}
		if res.Completed+res.Failed != w.TaskCount() {
			return false
		}
		for _, rec := range res.Records {
			if rec.Completed && rec.Start < rec.Ready {
				return false
			}
			if rec.Completed && rec.Finish < rec.Start {
				return false
			}
		}
		return res.Utilization >= 0 && res.Utilization <= 1.0001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func TestMemoryConstraintLimitsPacking(t *testing.T) {
	// Machine with 1000 MB; two tasks of 600 MB each cannot co-run even
	// though cores are plentiful.
	class := dcmodel.MachineClass{Name: "tiny", Cores: 16, MemoryMB: 1000, Speed: 1, MaxWatts: 100}
	w := &workload.Workload{Jobs: []workload.Job{{
		ID: 1, User: "u",
		Tasks: []workload.Task{
			{ID: 1, Job: 1, Cores: 1, MemoryMB: 600, Runtime: 10 * time.Second},
			{ID: 2, Job: 1, Cores: 1, MemoryMB: 600, Runtime: 10 * time.Second},
		},
	}}}
	res, err := Run(&Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 1, class, 8),
		Workload: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 20*time.Second {
		t.Errorf("memory-constrained makespan=%v, want 20s (serialized)", res.Makespan)
	}
}

func TestDeadlineAccounting(t *testing.T) {
	w := &workload.Workload{Jobs: []workload.Job{
		{
			ID: 1, User: "u", Deadline: 15 * time.Second,
			Tasks: []workload.Task{{ID: 1, Job: 1, Cores: 1, MemoryMB: 1, Runtime: 10 * time.Second}},
		},
		{
			ID: 2, User: "u", Deadline: 5 * time.Second,
			Tasks: []workload.Task{{ID: 2, Job: 2, Cores: 1, MemoryMB: 1, Runtime: 10 * time.Second}},
		},
	}}
	res, err := Run(&Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 2, dcmodel.ClassCommodity, 8),
		Workload: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMet != 1 || res.DeadlineMisses != 1 {
		t.Errorf("met=%d missed=%d, want 1/1", res.DeadlineMet, res.DeadlineMisses)
	}
}

func BenchmarkRun500Jobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(1))
		w, err := workload.Generate(workload.GeneratorConfig{Jobs: 500}, r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(&Scenario{
			Cluster:  dcmodel.NewHomogeneous("c", 32, dcmodel.ClassCommodity, 8),
			Workload: w,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCollidingTaskIDsKeepSeparateState runs two jobs whose tasks share
// IDs, as on a federation site that receives jobs from several origins,
// each numbering its own from 1. Both tasks must complete with a record
// each and give their cores back.
func TestCollidingTaskIDsKeepSeparateState(t *testing.T) {
	job := func(submit time.Duration) workload.Job {
		return workload.Job{ID: 1, User: "u", Submit: submit, Tasks: []workload.Task{
			{ID: 1, Job: 1, Cores: 4, MemoryMB: 100, Runtime: 10 * time.Second},
			{ID: 2, Job: 1, Cores: 4, MemoryMB: 100, Runtime: 20 * time.Second, Deps: []workload.TaskID{1}},
		}}
	}
	sc := &Scenario{
		Cluster:  dcmodel.NewHomogeneous("c", 1, dcmodel.ClassCommodity, 8),
		Workload: &workload.Workload{Jobs: []workload.Job{job(0), job(5 * time.Second)}},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 || res.Failed != 0 || len(res.Records) != 4 {
		t.Fatalf("completed=%d failed=%d records=%d, want 4, 0, 4", res.Completed, res.Failed, len(res.Records))
	}
	// Records come in (task ID, position) order: the first job's task
	// before the second's at each ID.
	for i, want := range []struct {
		id     workload.TaskID
		submit time.Duration
	}{{1, 0}, {1, 5 * time.Second}, {2, 0}, {2, 5 * time.Second}} {
		if r := res.Records[i]; r.Task != want.id || r.Submit != want.submit {
			t.Errorf("record %d is task %d submitted %v, want task %d submitted %v", i, r.Task, r.Submit, want.id, want.submit)
		}
	}
	if res.Makespan != 35*time.Second {
		t.Errorf("makespan=%v, want 35s (each job's chain runs 30s)", res.Makespan)
	}
	for _, m := range sc.Cluster.Machines {
		if m.UsedCores() != 0 {
			t.Errorf("machine %d holds %d cores after the run", m.ID, m.UsedCores())
		}
	}
}

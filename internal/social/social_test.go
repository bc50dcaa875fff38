package social

import (
	"math/rand"
	"testing"
	"time"

	"mcs/internal/stats"
	"mcs/internal/workload"
)

func TestInteractionGraphBasics(t *testing.T) {
	g := NewInteractionGraph()
	g.AddInteraction("a", "b", 1)
	g.AddInteraction("b", "a", 2) // undirected: accumulates on the same tie
	g.AddInteraction("a", "c", 1)
	g.AddInteraction("a", "a", 5) // self-interaction ignored
	g.AddActor("loner")
	if got := g.TieStrength("a", "b"); got != 3 {
		t.Errorf("tie(a,b)=%v, want 3", got)
	}
	if got := g.TieStrength("b", "a"); got != 3 {
		t.Errorf("tie is not symmetric: %v", got)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges=%d, want 2", g.NumEdges())
	}
	if got := g.Degree("a"); got != 4 {
		t.Errorf("degree(a)=%v, want 4", got)
	}
	if actors := g.Actors(); len(actors) != 4 {
		t.Errorf("actors=%v", actors)
	}
}

func TestCommunitiesSeparateCliques(t *testing.T) {
	g := NewInteractionGraph()
	// Clique 1: a-b-c; clique 2: x-y-z; weak bridge b-x.
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}} {
		g.AddInteraction(pair[0], pair[1], 10)
	}
	for _, pair := range [][2]string{{"x", "y"}, {"y", "z"}, {"x", "z"}} {
		g.AddInteraction(pair[0], pair[1], 10)
	}
	g.AddInteraction("b", "x", 0.1)
	comm := g.Communities(10)
	if comm["a"] != comm["b"] || comm["b"] != comm["c"] {
		t.Errorf("clique 1 split: %v", comm)
	}
	if comm["x"] != comm["y"] || comm["y"] != comm["z"] {
		t.Errorf("clique 2 split: %v", comm)
	}
	if comm["a"] == comm["x"] {
		t.Errorf("cliques merged across weak bridge: %v", comm)
	}
}

func syntheticWorkload(t *testing.T, jobs int) *workload.Workload {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	w, err := workload.Generate(workload.GeneratorConfig{
		Jobs:        jobs,
		Users:       16,
		UserSkew:    2.0,
		TasksPerJob: stats.Deterministic{Value: 2},
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFromWorkloadBuildsTies(t *testing.T) {
	w := syntheticWorkload(t, 300)
	g := FromWorkload(w, 10*time.Minute)
	if g.NumEdges() == 0 {
		t.Fatal("no implicit ties found")
	}
	if len(g.Actors()) < 2 {
		t.Fatal("too few actors")
	}
}

func TestDominantUsers(t *testing.T) {
	w := &workload.Workload{}
	mk := func(id int, user string, at time.Duration) workload.Job {
		return workload.Job{ID: workload.JobID(id), User: user, Submit: at,
			Tasks: []workload.Task{{ID: workload.TaskID(id), Cores: 1, MemoryMB: 1, Runtime: time.Second}}}
	}
	// heavy: 6 jobs, light1: 2, light2: 2.
	at := time.Duration(0)
	id := 1
	for i := 0; i < 6; i++ {
		w.Jobs = append(w.Jobs, mk(id, "heavy", at))
		id++
		at += time.Minute
	}
	for i := 0; i < 2; i++ {
		w.Jobs = append(w.Jobs, mk(id, "light1", at))
		id++
		at += time.Minute
		w.Jobs = append(w.Jobs, mk(id, "light2", at))
		id++
		at += time.Minute
	}
	top := DominantUsers(w, 0.5)
	if len(top) != 1 || top[0] != "heavy" {
		t.Errorf("dominant users=%v, want [heavy]", top)
	}
	all := DominantUsers(w, 1.0)
	if len(all) != 3 {
		t.Errorf("full coverage=%v", all)
	}
	// Zipf-skewed synthetic workloads show the dominant-user phenomenon:
	// few users cover half the jobs.
	sw := syntheticWorkload(t, 400)
	half := DominantUsers(sw, 0.5)
	if len(half) > 8 {
		t.Errorf("half the jobs need %d of 16 users; expected strong skew", len(half))
	}
}

func TestJobGroupings(t *testing.T) {
	w := &workload.Workload{}
	mk := func(id int, user string, at time.Duration) workload.Job {
		return workload.Job{ID: workload.JobID(id), User: user, Submit: at,
			Tasks: []workload.Task{{ID: workload.TaskID(id), Cores: 1, MemoryMB: 1, Runtime: time.Second}}}
	}
	// alice: batch of 3 (t=0,1,2 min), gap, batch of 2 (t=60,61).
	w.Jobs = append(w.Jobs,
		mk(1, "alice", 0), mk(2, "alice", time.Minute), mk(3, "alice", 2*time.Minute),
		mk(4, "bob", 5*time.Minute),
		mk(5, "alice", 60*time.Minute), mk(6, "alice", 61*time.Minute),
	)
	groups := JobGroupings(w, 10*time.Minute)
	if len(groups) != 3 {
		t.Fatalf("groups=%d, want 3: %+v", len(groups), groups)
	}
	if groups[0].User != "alice" || len(groups[0].Jobs) != 3 {
		t.Errorf("first group=%+v", groups[0])
	}
	if groups[1].User != "bob" || len(groups[1].Jobs) != 1 {
		t.Errorf("second group=%+v", groups[1])
	}
	if len(groups[2].Jobs) != 2 {
		t.Errorf("third group=%+v", groups[2])
	}
}

func TestJobGroupingsSameInstantOrderedByID(t *testing.T) {
	// Same-instant submissions by one user must land in the grouping in
	// job-ID order regardless of the (arbitrary) workload slice order —
	// sort.Slice is unstable, so the sort needs an explicit ID tie-break.
	w := &workload.Workload{}
	mk := func(id int, at time.Duration) workload.Job {
		return workload.Job{ID: workload.JobID(id), User: "carol", Submit: at,
			Tasks: []workload.Task{{ID: workload.TaskID(id), Cores: 1, MemoryMB: 1, Runtime: time.Second}}}
	}
	w.Jobs = append(w.Jobs, mk(5, time.Minute), mk(2, time.Minute), mk(9, time.Minute))
	groups := JobGroupings(w, 10*time.Minute)
	if len(groups) != 1 {
		t.Fatalf("groups=%d, want 1: %+v", len(groups), groups)
	}
	want := []workload.JobID{2, 5, 9}
	for i, id := range groups[0].Jobs {
		if id != want[i] {
			t.Fatalf("same-instant jobs out of ID order: got %v, want %v", groups[0].Jobs, want)
		}
	}
}

func TestGroupPredictor(t *testing.T) {
	history := []Grouping{
		{User: "alice", Jobs: make([]workload.JobID, 4)},
		{User: "alice", Jobs: make([]workload.JobID, 6)},
		{User: "bob", Jobs: make([]workload.JobID, 1)},
	}
	p := NewGroupPredictor(history)
	// Alice's mean batch is 5; after seeing 2, expect 3 more.
	if got := p.ExpectedRemaining("alice", 2); got != 3 {
		t.Errorf("expected remaining=%v, want 3", got)
	}
	if got := p.ExpectedRemaining("alice", 10); got != 0 {
		t.Errorf("over-seen batch must predict 0, got %v", got)
	}
	if got := p.ExpectedRemaining("stranger", 0); got != 0 {
		t.Errorf("unknown user must predict 0, got %v", got)
	}
}

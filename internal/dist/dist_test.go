package dist_test

// The distributed determinism contract: a campaign run through the
// coordinator must produce a combined report byte-identical to the
// in-process "sweep" meta-scenario — at any worker count, any shard size,
// any completion order, through any transport, and across a kill and a
// checkpoint resume. Fault tolerance rides the same harness: lost workers
// reassign, poison cells become typed failure records instead of aborting
// the campaign.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"mcs/internal/dist"
	"mcs/internal/scenario"

	// Ecosystem packages register the scenario kinds campaigns run.
	_ "mcs/internal/banking"
)

// TestMain doubles as the worker child for the subprocess-transport tests:
// re-executing the test binary with MCS_DIST_HELPER set turns it into a
// protocol worker (the same trick mcsim -worker plays in production). The
// helper exits before the testing framework can print its trailer, so the
// protocol stream on stdout stays clean.
func TestMain(m *testing.M) {
	switch os.Getenv("MCS_DIST_HELPER") {
	case "worker":
		if err := dist.ServeStdio(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "helper worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "die-after-one":
		// Emit one result, then die mid-unit: the worker-lost path.
		dieAfterOneHelper()
		os.Exit(3)
	}
	os.Exit(m.Run())
}

func dieAfterOneHelper() {
	var unit dist.WorkUnit
	dec := json.NewDecoder(os.Stdin)
	if err := dec.Decode(&unit); err != nil || len(unit.Cells) == 0 {
		return
	}
	json.NewEncoder(os.Stdout).Encode(dist.RunCell(unit.Cells[0]))
}

// sweepDoc is the reference campaign: a 2×2 banking portfolio, small
// enough to run dozens of times across the matrix of fleet shapes.
const sweepDoc = `{
  "kind": "sweep", "seed": 17,
  "base": {"kind": "banking", "transactions": 120, "instantShare": 0.3},
  "grid": {"/discipline": ["edf", "fcfs"], "/instantShare": [0.1, 0.5]}
}`

func inProcessBytes(t *testing.T, doc string) string {
	t.Helper()
	res, err := scenario.RunDocument(json.RawMessage(doc))
	if err != nil {
		t.Fatal(err)
	}
	return marshal(t, res)
}

func marshal(t *testing.T, res *scenario.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func runCoordinator(t *testing.T, workers []dist.Worker, opts dist.Options, doc string) (*scenario.Result, []dist.Failure) {
	t.Helper()
	coord, err := dist.NewCoordinator(workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, fails, err := coord.Run(context.Background(), json.RawMessage(doc))
	if err != nil {
		t.Fatal(err)
	}
	return res, fails
}

func localFleet(n int) []dist.Worker {
	fleet := make([]dist.Worker, n)
	for i := range fleet {
		fleet[i] = &dist.Local{ID: i}
	}
	return fleet
}

// TestDistributedReportMatchesInProcess is the headline contract: byte
// identity across 1/2/8 workers and shard sizes 1, heuristic, and
// whole-campaign.
func TestDistributedReportMatchesInProcess(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	for _, workers := range []int{1, 2, 8} {
		for _, shard := range []int{1, 0, 4} {
			t.Run(fmt.Sprintf("workers=%d/shard=%d", workers, shard), func(t *testing.T) {
				res, fails := runCoordinator(t, localFleet(workers), dist.Options{ShardSize: shard}, sweepDoc)
				if len(fails) != 0 {
					t.Fatalf("unexpected failures: %+v", fails)
				}
				if got := marshal(t, res); got != want {
					t.Errorf("report bytes diverged from in-process sweep:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// reversedWorker completes every cell, then emits the results back to
// front — completion order must not be able to reach the report.
type reversedWorker struct{ inner dist.Local }

func (r *reversedWorker) Name() string { return "reversed" }
func (r *reversedWorker) Run(ctx context.Context, unit dist.WorkUnit, emit func(dist.CellResult)) error {
	var buf []dist.CellResult
	if err := r.inner.Run(ctx, unit, func(res dist.CellResult) { buf = append(buf, res) }); err != nil {
		return err
	}
	for i := len(buf) - 1; i >= 0; i-- {
		emit(buf[i])
	}
	return nil
}
func (r *reversedWorker) Close() error { return nil }

func TestShuffledCompletionOrderKeepsReportBytes(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	fleet := []dist.Worker{&reversedWorker{}, &dist.Local{ID: 1}, &reversedWorker{}}
	res, fails := runCoordinator(t, fleet, dist.Options{ShardSize: 1}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %+v", fails)
	}
	if got := marshal(t, res); got != want {
		t.Errorf("report depends on completion order:\n got %s\nwant %s", got, want)
	}
}

// countingWorker counts the cells it actually executed.
type countingWorker struct {
	inner dist.Local
	n     atomic.Int64
}

func (c *countingWorker) Name() string { return "counting" }
func (c *countingWorker) Run(ctx context.Context, unit dist.WorkUnit, emit func(dist.CellResult)) error {
	return c.inner.Run(ctx, unit, func(res dist.CellResult) {
		c.n.Add(1)
		emit(res)
	})
}
func (c *countingWorker) Close() error { return nil }

// budgetWorker executes cells until its lifetime budget runs dry, then
// fails mid-unit — a worker crash, from the coordinator's point of view.
type budgetWorker struct {
	inner  dist.Local
	budget atomic.Int64
}

func (b *budgetWorker) Name() string { return "budget" }
func (b *budgetWorker) Run(ctx context.Context, unit dist.WorkUnit, emit func(dist.CellResult)) error {
	for _, spec := range unit.Cells {
		if b.budget.Add(-1) < 0 {
			return errors.New("budget worker killed")
		}
		emit(dist.RunCell(spec))
	}
	return nil
}
func (b *budgetWorker) Close() error { return nil }

// failingWorker errors on every unit without emitting anything.
type failingWorker struct{}

func (failingWorker) Name() string { return "failing" }
func (failingWorker) Run(context.Context, dist.WorkUnit, func(dist.CellResult)) error {
	return errors.New("synthetic worker loss")
}
func (failingWorker) Close() error { return nil }

// TestWorkerLossReassignsCells: a worker that dies on its first unit must
// not cost the campaign anything but wall-clock.
func TestWorkerLossReassignsCells(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	fleet := []dist.Worker{failingWorker{}, &dist.Local{ID: 1}}
	res, fails := runCoordinator(t, fleet, dist.Options{ShardSize: 1}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %+v", fails)
	}
	if got := marshal(t, res); got != want {
		t.Errorf("report diverged after worker loss:\n got %s\nwant %s", got, want)
	}
}

func TestAllWorkersLostReportsOutstandingCells(t *testing.T) {
	coord, err := dist.NewCoordinator([]dist.Worker{failingWorker{}, failingWorker{}}, dist.Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = coord.Run(context.Background(), json.RawMessage(sweepDoc))
	if err == nil || !strings.Contains(err.Error(), "all workers lost") {
		t.Errorf("err = %v, want all-workers-lost", err)
	}
}

// TestScenarioErrorBecomesTypedFailure: a poison cell (instantShare out of
// range) retries up to its budget, then lands in the report as a typed
// failure record — the campaign itself completes.
func TestScenarioErrorBecomesTypedFailure(t *testing.T) {
	doc := `{
	  "kind": "sweep", "seed": 5,
	  "base": {"kind": "banking", "transactions": 80},
	  "grid": {"/instantShare": [0.2, 9.5]}
	}`
	res, fails := runCoordinator(t, localFleet(2), dist.Options{}, doc)
	if len(fails) != 1 {
		t.Fatalf("failures = %+v, want exactly one", fails)
	}
	f := fails[0]
	if f.Type != dist.FailScenario || f.Index != 1 || f.Attempts != 3 {
		t.Errorf("failure = %+v, want scenario-typed at index 1 after 3 attempts", f)
	}
	if !strings.Contains(f.Msg, "instantShare") {
		t.Errorf("failure message %q does not name the cause", f.Msg)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("report has %d cells, want 2", len(res.Cells))
	}
	if res.Cells[0].Labels["failed"] != "" {
		t.Errorf("healthy cell labeled failed: %+v", res.Cells[0].Labels)
	}
	bad := res.Cells[1]
	if bad.Labels["failed"] != dist.FailScenario || bad.Labels["cell"] == "" {
		t.Errorf("failed cell labels = %+v", bad.Labels)
	}
	if len(bad.Metrics) != 0 {
		t.Errorf("failed cell carries metrics: %+v", bad.Metrics)
	}
	if res.Metrics["cells"] != 2 {
		t.Errorf("summary cells = %v, want 2", res.Metrics["cells"])
	}
}

// TestKilledCampaignResumesFromCheckpoint is the kill + resume contract:
// a campaign that dies mid-flight restarts from its checkpoint, reruns
// only the unfinished cells, and still produces byte-identical output.
func TestKilledCampaignResumesFromCheckpoint(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	ckpt := t.TempDir() + "/campaign.ckpt"

	// First attempt: the only worker dies after two cells; the campaign
	// fails with the checkpoint holding the completed prefix.
	dying := &budgetWorker{}
	dying.budget.Store(2)
	coord, err := dist.NewCoordinator([]dist.Worker{dying}, dist.Options{ShardSize: 1, Retries: -1, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.Run(context.Background(), json.RawMessage(sweepDoc)); err == nil {
		t.Fatal("campaign with a dying sole worker did not fail")
	}

	// Resume: a healthy worker finishes the campaign without re-running
	// the checkpointed cells.
	counting := &countingWorker{}
	res, fails := runCoordinator(t, []dist.Worker{counting}, dist.Options{ShardSize: 1, Checkpoint: ckpt}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures after resume: %+v", fails)
	}
	if got := marshal(t, res); got != want {
		t.Errorf("resumed report diverged:\n got %s\nwant %s", got, want)
	}
	if n := counting.n.Load(); n != 2 {
		t.Errorf("resume executed %d cells, want 2 (2 of 4 were checkpointed)", n)
	}

	// A fully completed checkpoint replays the report without running
	// anything: even a fleet of dead workers succeeds.
	res2, fails2 := runCoordinator(t, []dist.Worker{failingWorker{}}, dist.Options{Checkpoint: ckpt}, sweepDoc)
	if len(fails2) != 0 {
		t.Fatalf("unexpected failures on replay: %+v", fails2)
	}
	if got := marshal(t, res2); got != want {
		t.Errorf("checkpoint replay diverged:\n got %s\nwant %s", got, want)
	}
}

func TestCanceledContextAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	coord, err := dist.NewCoordinator(localFleet(2), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.Run(ctx, json.RawMessage(sweepDoc)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestCoordinatorRejectsEmptyFleet(t *testing.T) {
	if _, err := dist.NewCoordinator(nil, dist.Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
}

func TestCoordinatorRejectsBadDocument(t *testing.T) {
	coord, err := dist.NewCoordinator(localFleet(1), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{
		`{"kind": "sweep"}`, // no base
		`{"kind": "sweep", "base": {"kind": "nope"}, "grid": {}}`,
		`not json`,
	} {
		if _, _, err := coord.Run(context.Background(), json.RawMessage(doc)); err == nil {
			t.Errorf("document %q accepted", doc)
		}
	}
}

// TestSubprocessWorkerKilledMidUnit: a child that emits one result and
// exits is a worker crash; the fleet's healthy child absorbs the rest.
func TestSubprocessWorkerKilledMidUnit(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	dying, err := dist.StartSubprocess([]string{os.Args[0]}, "MCS_DIST_HELPER=die-after-one")
	if err != nil {
		t.Fatal(err)
	}
	defer dying.Close()
	healthy, err := dist.StartSubprocess([]string{os.Args[0]}, "MCS_DIST_HELPER=worker")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	res, fails := runCoordinator(t, []dist.Worker{dying, healthy}, dist.Options{ShardSize: 2}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %+v", fails)
	}
	if got := marshal(t, res); got != want {
		t.Errorf("report diverged after child death:\n got %s\nwant %s", got, want)
	}
}

func TestStartSubprocessRejectsEmptyArgv(t *testing.T) {
	if _, err := dist.StartSubprocess(nil); err == nil {
		t.Error("empty argv accepted")
	}
}

func TestRunCellScenarioError(t *testing.T) {
	res := dist.RunCell(dist.CellSpec{Index: 3, Key: "k", Seed: 1, Doc: json.RawMessage(`{"kind": "nope"}`)})
	if res.Err == "" || res.Index != 3 {
		t.Errorf("RunCell = %+v, want index-3 error", res)
	}
}

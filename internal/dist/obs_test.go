package dist_test

// Observability contract of the campaign layer: the coordinator narrates
// every lifecycle transition as typed obs.Events, a TextSink composed into
// the event stream prints the exact legacy status lines, and the daemon's /metrics
// and /healthz surfaces report what actually ran. None of it may change a
// report byte — the determinism side is covered by the byte-identity tests
// in dist_test.go running with sinks attached here.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcs/internal/dist"
	"mcs/internal/obs"
)

// recordingSink captures every emitted event for post-campaign assertions.
type recordingSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recordingSink) Emit(ev obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recordingSink) byType(t obs.Type) []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []obs.Event
	for _, ev := range r.events {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

func TestCoordinatorEmitsTypedEventSequence(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	sink := &recordingSink{}
	res, fails := runCoordinator(t, localFleet(2), dist.Options{ShardSize: 1, Events: sink}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %+v", fails)
	}
	if got := marshal(t, res); got != want {
		t.Errorf("attaching an event sink changed the report bytes:\n got %s\nwant %s", got, want)
	}

	started := sink.byType(obs.CampaignStarted)
	if len(started) != 1 || started[0].Total != 4 || started[0].Workers != 2 || started[0].Cell != -1 {
		t.Errorf("campaign-started = %+v, want one event with total=4 workers=2 cell=-1", started)
	}
	if joined := sink.byType(obs.WorkerJoined); len(joined) != 2 {
		t.Errorf("worker-joined count = %d, want 2", len(joined))
	}
	if retired := sink.byType(obs.WorkerRetired); len(retired) != 2 {
		t.Errorf("worker-retired count = %d, want 2", len(retired))
	} else {
		for _, ev := range retired {
			if ev.Err != "" {
				t.Errorf("healthy worker retired with error: %+v", ev)
			}
		}
	}

	// Every cell starts at least once (clones may start it again) and
	// finishes exactly once, with Done climbing to Total.
	startedCells := map[int]int{}
	for _, ev := range sink.byType(obs.CellStarted) {
		startedCells[ev.Cell]++
		if ev.Worker == "" {
			t.Errorf("cell-started without a worker: %+v", ev)
		}
	}
	finished := sink.byType(obs.CellFinished)
	if len(finished) != 4 {
		t.Fatalf("cell-finished count = %d, want 4", len(finished))
	}
	seenDone := map[int]bool{}
	for _, ev := range finished {
		if startedCells[ev.Cell] == 0 {
			t.Errorf("cell %d finished without starting", ev.Cell)
		}
		if ev.Events == 0 || ev.Key == "" || ev.Total != 4 {
			t.Errorf("cell-finished missing facts: %+v", ev)
		}
		if seenDone[ev.Cell] {
			t.Errorf("cell %d finished twice", ev.Cell)
		}
		seenDone[ev.Cell] = true
	}

	fin := sink.byType(obs.CampaignFinished)
	if len(fin) != 1 || fin[0].Done != 4 || fin[0].Total != 4 || fin[0].Attempt != 0 || fin[0].Events == 0 {
		t.Errorf("campaign-finished = %+v, want done=4/4, 0 failed, events>0", fin)
	}
}

// stallWorker holds its unit until the coordinator cancels it: a
// straggler whose cells a speculative clone finishes elsewhere.
type stallWorker struct {
	once    sync.Once
	started chan struct{}
}

func (s *stallWorker) Name() string { return "stall" }
func (s *stallWorker) Run(ctx context.Context, _ dist.WorkUnit, _ func(dist.CellResult)) error {
	s.once.Do(func() { close(s.started) })
	<-ctx.Done()
	return ctx.Err()
}
func (s *stallWorker) Close() error { return nil }

// afterStallWorker starts work only once the stall worker holds a unit.
type afterStallWorker struct {
	inner dist.Local
	stall *stallWorker
}

func (a *afterStallWorker) Name() string { return a.inner.Name() }
func (a *afterStallWorker) Run(ctx context.Context, unit dist.WorkUnit, emit func(dist.CellResult)) error {
	select {
	case <-a.stall.started:
	case <-ctx.Done():
		return ctx.Err()
	}
	return a.inner.Run(ctx, unit, emit)
}
func (a *afterStallWorker) Close() error { return nil }

// TestCanceledStragglerRetiresWithoutError: when the campaign finishes and
// the coordinator cancels a straggler's unit, that worker is released,
// not lost — its worker-retired event carries no error.
func TestCanceledStragglerRetiresWithoutError(t *testing.T) {
	want := inProcessBytes(t, sweepDoc)
	stall := &stallWorker{started: make(chan struct{})}
	fleet := []dist.Worker{stall, &afterStallWorker{inner: dist.Local{ID: 1}, stall: stall}}
	sink := &recordingSink{}
	res, fails := runCoordinator(t, fleet, dist.Options{ShardSize: 1, Events: sink}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %+v", fails)
	}
	if got := marshal(t, res); got != want {
		t.Errorf("report diverged:\n got %s\nwant %s", got, want)
	}
	if len(sink.byType(obs.CellSpeculated)) == 0 {
		t.Fatal("the stalled unit was never cloned; the straggler path did not run")
	}
	retired := sink.byType(obs.WorkerRetired)
	if len(retired) != 2 {
		t.Fatalf("worker-retired count = %d, want 2", len(retired))
	}
	for _, ev := range retired {
		if ev.Err != "" {
			t.Errorf("canceled straggler retired with error: %+v", ev)
		}
	}
}

// slowWorker stretches the campaign so heartbeats get a chance to fire.
type slowWorker struct{ inner dist.Local }

func (s *slowWorker) Name() string { return "slow" }
func (s *slowWorker) Run(ctx context.Context, unit dist.WorkUnit, emit func(dist.CellResult)) error {
	return s.inner.Run(ctx, unit, func(res dist.CellResult) {
		time.Sleep(30 * time.Millisecond)
		emit(res)
	})
}
func (s *slowWorker) Close() error { return nil }

func TestCoordinatorHeartbeatCarriesProgress(t *testing.T) {
	sink := &recordingSink{}
	_, fails := runCoordinator(t, []dist.Worker{&slowWorker{}},
		dist.Options{ShardSize: 1, Events: sink, Heartbeat: 10 * time.Millisecond}, sweepDoc)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %+v", fails)
	}
	beats := sink.byType(obs.Heartbeat)
	if len(beats) == 0 {
		t.Fatal("no heartbeat fired during a >120ms campaign with a 10ms period")
	}
	for _, b := range beats {
		if b.Total != 4 || b.Cell != -1 || b.Workers != 1 {
			t.Errorf("heartbeat = %+v, want total=4 cell=-1 workers=1", b)
		}
	}
}

// TestStatusAdapterKeepsLegacyLines: a TextSink composed with another sink
// through obs.Multi — how mcsim writes its status lines — must print the
// exact free-form lines the old status writer did (retries and permanent
// failures) and nothing else, while the other sink still sees every event.
func TestStatusAdapterKeepsLegacyLines(t *testing.T) {
	doc := `{
	  "kind": "sweep", "seed": 5,
	  "base": {"kind": "banking", "transactions": 80},
	  "grid": {"/instantShare": [0.2, 9.5]}
	}`
	var buf bytes.Buffer
	rec := &recordingSink{}
	opts := dist.Options{Events: obs.Multi(rec, &obs.TextSink{W: &buf})}
	_, fails := runCoordinator(t, localFleet(1), opts, doc)
	if len(fails) != 1 {
		t.Fatalf("failures = %+v, want the poison cell", fails)
	}
	if len(rec.byType(obs.CellFinished)) == 0 {
		t.Error("the composed recording sink saw no cell events")
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("status printed %d lines, want 3 (2 retries + 1 permanent):\n%s", len(lines), out)
	}
	for i := 1; i <= 2; i++ {
		want := fmt.Sprintf("dist: cell 1 (%s) failed (scenario), retry %d/2", fails[0].Key, i)
		if !strings.Contains(out, want) {
			t.Errorf("status missing legacy retry line %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("dist: cell 1 (%s) failed permanently after 3 attempts:", fails[0].Key)) {
		t.Errorf("status missing legacy permanent-failure line in:\n%s", out)
	}
}

func TestServerMetricsAndHealthz(t *testing.T) {
	srv := httptest.NewServer(dist.NewServer().Handler())
	defer srv.Close()

	// Run one 2-cell unit through the real transport, one cell poisoned.
	unit := dist.WorkUnit{ID: 0, Cells: []dist.CellSpec{
		{Index: 0, Key: "ok", Seed: 7, Doc: json.RawMessage(`{"kind": "banking", "transactions": 40}`)},
		{Index: 1, Key: "bad", Seed: 7, Doc: json.RawMessage(`{"kind": "banking", "instantShare": 9.5}`)},
	}}
	worker := &dist.HTTP{Base: srv.URL}
	var got []dist.CellResult
	if err := worker.Run(context.Background(), unit, func(res dist.CellResult) { got = append(got, res) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("transport returned %d results, want 2", len(got))
	}

	// The last result line reaches the client before handleRun's deferred
	// busy decrement runs, so wait (bounded) for the daemon to go idle
	// before asserting the in-flight and busy-worker tallies.
	type healthz struct {
		OK             bool     `json:"ok"`
		Kinds          []string `json:"kinds"`
		UptimeSeconds  *int64   `json:"uptimeSeconds"`
		InFlight       *int64   `json:"inFlight"`
		CellsCompleted *int64   `json:"cellsCompleted"`
		CellsFailed    *int64   `json:"cellsFailed"`
	}
	var health healthz
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		hresp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		health = healthz{}
		err = json.NewDecoder(hresp.Body).Decode(&health)
		hresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if health.InFlight == nil || *health.InFlight == 0 || time.Now().After(deadline) {
			break
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(body)
	for _, want := range []string{
		"# TYPE mcsweepd_cells_run_total counter",
		"mcsweepd_cells_run_total 2",
		"mcsweepd_cells_failed_total 1",
		"mcsweepd_busy_workers 0",
		"# TYPE mcsweepd_uptime_seconds gauge",
		"mcsweepd_process_resident_bytes",
		"mcsweepd_events_fired_total",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q:\n%s", want, scrape)
		}
	}

	if !health.OK || len(health.Kinds) == 0 {
		t.Errorf("healthz lost its legacy fields: %+v", health)
	}
	if health.UptimeSeconds == nil || health.InFlight == nil || health.CellsCompleted == nil || health.CellsFailed == nil {
		t.Fatalf("healthz missing observability fields: %+v", health)
	}
	if *health.InFlight != 0 || *health.CellsCompleted != 1 || *health.CellsFailed != 1 {
		t.Errorf("healthz tallies = inFlight %d, completed %d, failed %d; want 0/1/1",
			*health.InFlight, *health.CellsCompleted, *health.CellsFailed)
	}
}

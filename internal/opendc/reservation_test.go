package opendc

import (
	"math/rand"
	"testing"
	"time"

	"mcs/internal/dcmodel"
	"mcs/internal/sched"
	"mcs/internal/sim"
	"mcs/internal/workload"
)

// engineV0 carries the state the EASY shadow-time computation read before
// the completion index: a running map keyed by task ID.
type engineV0 struct {
	scenario *Scenario
	running  map[workload.TaskID]*runningV0
	horizon  time.Duration
}

type runningV0 struct {
	qt      *sched.QueuedTask
	machine *dcmodel.Machine
	at      sim.Time // the completion time, which V0 read off its event
}

// reservationTime is the engine's reservationTime as it was before the
// completion index, verbatim but for reading the completion time from the
// running entry: the reference the index is checked against.
func (e *engineV0) reservationTime(qt *sched.QueuedTask, now sim.Time) sim.Time {
	type release struct {
		at    sim.Time
		cores int
		m     *dcmodel.Machine
	}
	var releases []release
	for _, r := range e.running {
		releases = append(releases, release{at: r.at, cores: r.qt.Task.Cores, m: r.machine})
	}
	// Sort by completion time (insertion sort; running set is modest).
	for i := 1; i < len(releases); i++ {
		for j := i; j > 0 && releases[j].at < releases[j-1].at; j-- {
			releases[j], releases[j-1] = releases[j-1], releases[j]
		}
	}
	free := make(map[dcmodel.MachineID]int, len(e.scenario.Cluster.Machines))
	for _, m := range e.scenario.Cluster.Machines {
		if qt.RequireAccelerator != "" && m.Class.Accelerator != qt.RequireAccelerator {
			continue
		}
		if !m.Down() {
			free[m.ID] = m.FreeCores()
		}
	}
	for _, rel := range releases {
		free[rel.m.ID] += rel.cores
		if free[rel.m.ID] >= qt.Task.Cores {
			return rel.at
		}
	}
	// Never fits under current knowledge: no reservation constraint.
	return e.horizon
}

// checkReservation builds one random running set on a random cluster,
// files it both in the completion index and in the old running map, and
// compares the two shadow times. Completion times fall on a dozen
// instants, so ties are common; with accel set, a third of the machines
// carry a GPU and half the requests need one; some machines go down or
// to sleep after their tasks were filed.
func checkReservation(t *testing.T, seed int64, nMachines, nRunning, request uint8, accel bool) {
	r := rand.New(rand.NewSource(seed))
	machines := make([]*dcmodel.Machine, 1+int(nMachines%32))
	for i := range machines {
		class := dcmodel.ClassCommodity
		if accel && r.Intn(3) == 0 {
			class = dcmodel.ClassGPU
		}
		machines[i] = &dcmodel.Machine{ID: dcmodel.MachineID(i), Class: class}
	}
	cluster := &dcmodel.Cluster{Name: "c", Machines: machines}
	const horizon = 48 * time.Hour
	e := &engine{machines: machines, free: make([]int, len(machines)), horizon: horizon}
	v0 := &engineV0{
		scenario: &Scenario{Cluster: cluster},
		running:  make(map[workload.TaskID]*runningV0),
		horizon:  horizon,
	}
	for i := 0; i < int(nRunning); i++ {
		mi := r.Intn(len(machines))
		m := machines[mi]
		cores := 1 + r.Intn(8)
		if !m.Allocate(cores, 1) {
			continue
		}
		at := time.Duration(1+r.Intn(12)) * time.Minute
		task := &workload.Task{ID: workload.TaskID(i + 1), Cores: cores}
		v0.running[task.ID] = &runningV0{qt: &sched.QueuedTask{Task: task}, machine: m, at: at}
		e.addRunning(at, i, mi, cores)
	}
	for _, m := range machines {
		switch r.Intn(8) {
		case 0:
			m.SetDown(true)
		case 1:
			m.SetAsleep(true) // a no-op unless the machine is idle
		}
	}
	qt := &sched.QueuedTask{Task: &workload.Task{Cores: 1 + int(request%40)}}
	if accel && r.Intn(2) == 0 {
		qt.RequireAccelerator = "gpu"
	}
	got, want := e.reservationTime(qt), v0.reservationTime(qt, 0)
	if got != want {
		t.Fatalf("seed %d, %d machines, %d running, %d cores (accelerator %q): reservation %v, want %v",
			seed, len(machines), len(v0.running), qt.Task.Cores, qt.RequireAccelerator, got, want)
	}
}

// TestReservationTimeMatchesV0 runs the differential check over a fixed
// set of random running sets.
func TestReservationTimeMatchesV0(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		checkReservation(t, seed, uint8(r.Intn(40)), uint8(r.Intn(120)), uint8(r.Intn(48)), seed%2 == 0)
	}
}

// FuzzReservationTime is the same differential check over fuzzed running
// sets.
func FuzzReservationTime(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(40), uint8(12), false)
	f.Add(int64(2), uint8(3), uint8(60), uint8(16), true)
	f.Add(int64(3), uint8(31), uint8(200), uint8(39), true)
	f.Add(int64(4), uint8(0), uint8(0), uint8(1), false)
	f.Fuzz(checkReservation)
}

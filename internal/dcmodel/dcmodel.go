// Package dcmodel models the physical substrate of computer ecosystems:
// machines, racks, rooms, and datacenters, including heterogeneous hardware
// and a linear power model. It is the Infrastructure layer of the paper's
// datacenter reference architecture (Figure 3) and the hardware side of the
// "extreme heterogeneity" challenge (C4).
package dcmodel

import (
	"fmt"
	"math/rand"
)

// MachineID identifies a machine within a cluster.
type MachineID int

// MachineClass describes a hardware SKU. Speed is the relative execution
// speed of one core versus the reference machine (1.0); a task with
// reference runtime R completes in R/Speed on this class.
type MachineClass struct {
	Name     string
	Cores    int
	MemoryMB int
	Speed    float64
	// IdleWatts and MaxWatts parameterize the linear power model
	// P(u) = IdleWatts + u·(MaxWatts−IdleWatts) for utilization u∈[0,1].
	IdleWatts float64
	MaxWatts  float64
	// Accelerator marks special-purpose hardware (GPU/TPU/FPGA classes,
	// paper C4); tasks can require it via placement constraints.
	Accelerator string
}

// Validate checks the class is physical.
func (c MachineClass) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("dcmodel: class %q has %d cores", c.Name, c.Cores)
	}
	if c.MemoryMB <= 0 {
		return fmt.Errorf("dcmodel: class %q has %d MB memory", c.Name, c.MemoryMB)
	}
	if c.Speed <= 0 {
		return fmt.Errorf("dcmodel: class %q has speed %v", c.Name, c.Speed)
	}
	if c.MaxWatts < c.IdleWatts || c.IdleWatts < 0 {
		return fmt.Errorf("dcmodel: class %q has power range [%v,%v]", c.Name, c.IdleWatts, c.MaxWatts)
	}
	return nil
}

// Power returns the power draw at utilization u (clamped to [0,1]).
func (c MachineClass) Power(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return c.IdleWatts + u*(c.MaxWatts-c.IdleWatts)
}

// Machine is one host: a machine class placed in a rack, with mutable
// allocation and availability state.
type Machine struct {
	ID    MachineID
	Class MachineClass
	Rack  string

	usedCores int
	usedMemMB int
	down      bool
	asleep    bool
}

// FreeCores returns currently unallocated cores (0 while the machine is
// down or asleep).
func (m *Machine) FreeCores() int {
	if m.down || m.asleep {
		return 0
	}
	return m.Class.Cores - m.usedCores
}

// FreeMemoryMB returns currently unallocated memory.
func (m *Machine) FreeMemoryMB() int {
	if m.down || m.asleep {
		return 0
	}
	return m.Class.MemoryMB - m.usedMemMB
}

// UsedCores returns currently allocated cores.
func (m *Machine) UsedCores() int { return m.usedCores }

// Utilization returns the core utilization in [0,1].
func (m *Machine) Utilization() float64 {
	if m.Class.Cores == 0 {
		return 0
	}
	return float64(m.usedCores) / float64(m.Class.Cores)
}

// Down reports whether the machine is failed.
func (m *Machine) Down() bool { return m.down }

// SetDown marks the machine failed or repaired. Failing a machine clears its
// allocations (the running tasks are lost; the scheduler must reschedule)
// and its sleep state; repairs return the machine awake.
func (m *Machine) SetDown(down bool) {
	m.down = down
	m.asleep = false
	if down {
		m.usedCores = 0
		m.usedMemMB = 0
	}
}

// Asleep reports whether the machine is powered down for energy saving.
func (m *Machine) Asleep() bool { return m.asleep }

// SetAsleep powers the machine down (true) or wakes it (false). Only idle,
// up machines may sleep; SetAsleep(true) on a busy or down machine is a
// no-op, which makes power policies safe by construction.
func (m *Machine) SetAsleep(asleep bool) {
	if asleep && (m.down || m.usedCores > 0) {
		return
	}
	m.asleep = asleep
}

// SleepWatts is the power draw of a sleeping machine.
const SleepWatts = 10.0

// Fits reports whether a demand of cores and memMB fits on the machine now.
func (m *Machine) Fits(cores, memMB int) bool {
	return !m.down && !m.asleep && cores <= m.FreeCores() && memMB <= m.FreeMemoryMB()
}

// Allocate reserves cores and memory. It returns false (and changes nothing)
// if the demand does not fit — the scheduler-safety invariant.
func (m *Machine) Allocate(cores, memMB int) bool {
	if !m.Fits(cores, memMB) {
		return false
	}
	m.usedCores += cores
	m.usedMemMB += memMB
	return true
}

// Release returns previously allocated resources. Releases on a down machine
// are ignored (the failure already cleared state).
func (m *Machine) Release(cores, memMB int) {
	if m.down {
		return
	}
	m.usedCores -= cores
	if m.usedCores < 0 {
		m.usedCores = 0
	}
	m.usedMemMB -= memMB
	if m.usedMemMB < 0 {
		m.usedMemMB = 0
	}
}

// Cluster is a set of machines with rack topology — the resource pool one
// scheduler manages (one "constituent system" of an ecosystem).
type Cluster struct {
	Name     string
	Machines []*Machine
}

// TotalCores sums cores over all machines, up or down.
func (c *Cluster) TotalCores() int {
	total := 0
	for _, m := range c.Machines {
		total += m.Class.Cores
	}
	return total
}

// AvailableCores sums free cores over up machines.
func (c *Cluster) AvailableCores() int {
	total := 0
	for _, m := range c.Machines {
		total += m.FreeCores()
	}
	return total
}

// UpMachines returns the number of machines currently up.
func (c *Cluster) UpMachines() int {
	n := 0
	for _, m := range c.Machines {
		if !m.Down() {
			n++
		}
	}
	return n
}

// PowerWatts returns the machine's instantaneous power draw: nothing while
// down, SleepWatts while asleep, the class's power model otherwise.
func (m *Machine) PowerWatts() float64 {
	switch {
	case m.down:
		return 0
	case m.asleep:
		return SleepWatts
	}
	return m.Class.Power(m.Utilization())
}

// PowerWatts returns the instantaneous cluster power draw, summed in
// machine order.
func (c *Cluster) PowerWatts() float64 {
	total := 0.0
	for _, m := range c.Machines {
		total += m.PowerWatts()
	}
	return total
}

// Validate checks machine classes and unique IDs.
func (c *Cluster) Validate() error {
	seen := make(map[MachineID]bool, len(c.Machines))
	for _, m := range c.Machines {
		if seen[m.ID] {
			return fmt.Errorf("dcmodel: duplicate machine id %d", m.ID)
		}
		seen[m.ID] = true
		if err := m.Class.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Reset clears all allocations and failures, restoring the cluster to its
// initial state so a cluster value can be reused across experiment runs.
func (c *Cluster) Reset() {
	for _, m := range c.Machines {
		m.down = false
		m.asleep = false
		m.usedCores = 0
		m.usedMemMB = 0
	}
}

// Standard machine classes used across experiments. Speeds are relative;
// power figures are in the range published for commodity servers.
var (
	// ClassCommodity is the reference dual-socket commodity server.
	ClassCommodity = MachineClass{
		Name: "commodity", Cores: 16, MemoryMB: 65536, Speed: 1.0,
		IdleWatts: 120, MaxWatts: 350,
	}
	// ClassBig is a large-memory, faster node.
	ClassBig = MachineClass{
		Name: "bignode", Cores: 64, MemoryMB: 262144, Speed: 1.4,
		IdleWatts: 250, MaxWatts: 900,
	}
	// ClassSlow is an old-generation node (heterogeneity experiments).
	ClassSlow = MachineClass{
		Name: "oldgen", Cores: 8, MemoryMB: 16384, Speed: 0.6,
		IdleWatts: 100, MaxWatts: 250,
	}
	// ClassGPU carries an accelerator (paper C4: GPUs/TPUs/FPGAs).
	ClassGPU = MachineClass{
		Name: "gpu", Cores: 16, MemoryMB: 131072, Speed: 1.0,
		IdleWatts: 200, MaxWatts: 1000, Accelerator: "gpu",
	}
)

// NewHomogeneous builds a cluster of n identical machines of the given
// class, packed into racks of rackSize machines.
func NewHomogeneous(name string, n int, class MachineClass, rackSize int) *Cluster {
	if rackSize <= 0 {
		rackSize = 32
	}
	c := &Cluster{Name: name, Machines: make([]*Machine, 0, n)}
	for i := 0; i < n; i++ {
		c.Machines = append(c.Machines, &Machine{
			ID:    MachineID(i),
			Class: class,
			Rack:  fmt.Sprintf("rack%02d", i/rackSize),
		})
	}
	return c
}

// Mix pairs a machine class with a count for heterogeneous clusters.
type Mix struct {
	Class MachineClass
	Count int
}

// NewHeterogeneous builds a cluster from a mix of machine classes, shuffling
// machine placement across racks with r for spatial diversity.
func NewHeterogeneous(name string, mixes []Mix, rackSize int, r *rand.Rand) *Cluster {
	if rackSize <= 0 {
		rackSize = 32
	}
	var classes []MachineClass
	for _, mx := range mixes {
		for i := 0; i < mx.Count; i++ {
			classes = append(classes, mx.Class)
		}
	}
	if r != nil {
		r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	}
	c := &Cluster{Name: name, Machines: make([]*Machine, 0, len(classes))}
	for i, cls := range classes {
		c.Machines = append(c.Machines, &Machine{
			ID:    MachineID(i),
			Class: cls,
			Rack:  fmt.Sprintf("rack%02d", i/rackSize),
		})
	}
	return c
}

// Datacenter groups clusters; a multi-cluster or geo-distributed deployment
// (paper C10) is a slice of Datacenters.
type Datacenter struct {
	Name     string
	Region   string
	Clusters []*Cluster
}

// TotalCores sums cores over all clusters.
func (d *Datacenter) TotalCores() int {
	total := 0
	for _, c := range d.Clusters {
		total += c.TotalCores()
	}
	return total
}

package dcmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMachineClassValidate(t *testing.T) {
	good := []MachineClass{ClassCommodity, ClassBig, ClassSlow, ClassGPU}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	bad := []MachineClass{
		{Name: "nocores", Cores: 0, MemoryMB: 1, Speed: 1, MaxWatts: 1},
		{Name: "nomem", Cores: 1, MemoryMB: 0, Speed: 1, MaxWatts: 1},
		{Name: "nospeed", Cores: 1, MemoryMB: 1, Speed: 0, MaxWatts: 1},
		{Name: "badpower", Cores: 1, MemoryMB: 1, Speed: 1, IdleWatts: 10, MaxWatts: 5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid class accepted", c.Name)
		}
	}
}

func TestPowerModel(t *testing.T) {
	c := MachineClass{Name: "p", Cores: 4, MemoryMB: 4, Speed: 1, IdleWatts: 100, MaxWatts: 300}
	if got := c.Power(0); got != 100 {
		t.Errorf("idle power=%v", got)
	}
	if got := c.Power(1); got != 300 {
		t.Errorf("max power=%v", got)
	}
	if got := c.Power(0.5); got != 200 {
		t.Errorf("half power=%v", got)
	}
	if got := c.Power(-1); got != 100 {
		t.Errorf("clamped low power=%v", got)
	}
	if got := c.Power(2); got != 300 {
		t.Errorf("clamped high power=%v", got)
	}
}

func TestMachineAllocateReleaseInvariant(t *testing.T) {
	m := &Machine{ID: 1, Class: ClassCommodity}
	if !m.Allocate(8, 1024) {
		t.Fatal("allocation failed")
	}
	if m.FreeCores() != 8 {
		t.Errorf("free cores=%d", m.FreeCores())
	}
	if m.Allocate(9, 1) {
		t.Fatal("over-allocation of cores accepted")
	}
	if m.Allocate(1, m.Class.MemoryMB) {
		t.Fatal("over-allocation of memory accepted")
	}
	m.Release(8, 1024)
	if m.UsedCores() != 0 || m.FreeMemoryMB() != m.Class.MemoryMB {
		t.Error("release did not restore state")
	}
	// Double release must not go negative.
	m.Release(8, 1024)
	if m.UsedCores() != 0 {
		t.Error("negative allocation after double release")
	}
}

// Property: any sequence of allocate/release/fail keeps 0 ≤ used ≤ capacity.
func TestMachineCapacityProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Cores uint8
		Mem   uint16
	}
	prop := func(ops []op) bool {
		m := &Machine{ID: 1, Class: ClassCommodity}
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0:
				m.Allocate(int(o.Cores), int(o.Mem))
			case 1:
				m.Release(int(o.Cores), int(o.Mem))
			case 2:
				m.SetDown(true)
			case 3:
				m.SetDown(false)
			}
			if m.UsedCores() < 0 || m.UsedCores() > m.Class.Cores {
				return false
			}
			if u := m.Utilization(); u < 0 || u > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestFailureClearsAllocations(t *testing.T) {
	m := &Machine{ID: 1, Class: ClassCommodity}
	m.Allocate(4, 100)
	m.SetDown(true)
	if m.FreeCores() != 0 || m.Fits(1, 1) {
		t.Error("down machine must offer no capacity")
	}
	m.SetDown(false)
	if m.UsedCores() != 0 {
		t.Error("repair must restore a clean machine")
	}
	if m.FreeCores() != m.Class.Cores {
		t.Error("repaired machine must be fully free")
	}
}

func TestNewHomogeneous(t *testing.T) {
	c := NewHomogeneous("dc", 70, ClassCommodity, 32)
	if len(c.Machines) != 70 {
		t.Fatalf("machines=%d", len(c.Machines))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TotalCores() != 70*16 {
		t.Errorf("total cores=%d", c.TotalCores())
	}
	racks := make(map[string]int)
	for _, m := range c.Machines {
		racks[m.Rack]++
	}
	if len(racks) != 3 {
		t.Errorf("racks=%d, want 3 (32+32+6)", len(racks))
	}
}

func TestNewHeterogeneous(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := NewHeterogeneous("het", []Mix{
		{Class: ClassCommodity, Count: 10},
		{Class: ClassBig, Count: 5},
		{Class: ClassGPU, Count: 2},
	}, 8, r)
	if len(c.Machines) != 17 {
		t.Fatalf("machines=%d", len(c.Machines))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	gpus := 0
	for _, m := range c.Machines {
		if m.Class.Accelerator == "gpu" {
			gpus++
		}
	}
	if gpus != 2 {
		t.Errorf("gpus=%d", gpus)
	}
}

func TestClusterAggregates(t *testing.T) {
	c := NewHomogeneous("dc", 4, ClassCommodity, 2)
	c.Machines[0].Allocate(16, 1024) // fully busy
	c.Machines[1].SetDown(true)
	if got := c.UpMachines(); got != 3 {
		t.Errorf("up=%d", got)
	}
	if got := c.AvailableCores(); got != 32 {
		t.Errorf("available=%d", got)
	}
	// Power: machine0 at max, machines 2,3 idle, machine1 down.
	want := ClassCommodity.MaxWatts + 2*ClassCommodity.IdleWatts
	if got := c.PowerWatts(); got != want {
		t.Errorf("power=%v, want %v", got, want)
	}
	c.Reset()
	if c.UpMachines() != 4 || c.AvailableCores() != 64 {
		t.Error("reset incomplete")
	}
}

func TestClusterValidateDuplicateIDs(t *testing.T) {
	c := &Cluster{Machines: []*Machine{
		{ID: 1, Class: ClassCommodity},
		{ID: 1, Class: ClassCommodity},
	}}
	if err := c.Validate(); err == nil {
		t.Fatal("duplicate machine IDs accepted")
	}
}

func TestDatacenterTotalCores(t *testing.T) {
	d := Datacenter{Name: "eu", Clusters: []*Cluster{
		NewHomogeneous("a", 2, ClassCommodity, 8),
		NewHomogeneous("b", 3, ClassSlow, 8),
	}}
	if got := d.TotalCores(); got != 2*16+3*8 {
		t.Errorf("total=%d", got)
	}
}

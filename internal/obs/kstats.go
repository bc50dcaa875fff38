package obs

// Kernel-level telemetry. A *KernelStats is handed to a kernel at
// construction (sim.WithKernelStats); the kernel increments the counters
// as it dispatches. The pointer is nil by default, so an unobserved kernel
// pays exactly one predicted nil-check branch per step — the "zero cost
// when disabled" half of the observability contract, gated by benchguard.
//
// The counters are plain (non-atomic) uint64s because the kernel is
// strictly single-threaded; read them from the kernel's goroutine only
// (Snapshot after Run, or inside the OnHeartbeat callback).

import "time"

// KernelStats accumulates one kernel's dispatch telemetry. The exported
// counter fields are written by internal/sim; the heartbeat fields are
// configuration read by the kernel.
type KernelStats struct {
	// Per-path dispatch counts: which source the kernel's merge drew each
	// fired event from. Ticker ticks count as heap dispatches.
	HeapDispatched      uint64
	ImmediateDispatched uint64
	StreamDispatched    uint64
	// Canceled counts Cancel calls that actually canceled a live event, and
	// Stop calls on armed tickers.
	Canceled uint64

	// HeartbeatEvery, when positive, makes the kernel invoke OnHeartbeat
	// after every HeartbeatEvery-th processed event. The callback runs on
	// the kernel goroutine and MUST only read — scheduling, canceling, or
	// drawing from the kernel RNG inside it breaks the determinism
	// contract.
	HeartbeatEvery uint64
	// OnHeartbeat receives the kernel's processed-event count and current
	// sim-clock.
	OnHeartbeat func(processed uint64, now time.Duration)
}

// KernelSnapshot is the JSON form of the counters — the Result envelope's
// optional `telemetry` block. It is a value copy, safe to marshal after
// the run while the kernel is idle.
//
// WheelDispatched, WheelRotations and HorizonOverflow counted the timing
// wheel the kernel no longer has; they are always 0 and stay in the
// snapshot only because the benchmark harness still reads them.
type KernelSnapshot struct {
	HeapDispatched      uint64 `json:"heapDispatched"`
	WheelDispatched     uint64 `json:"wheelDispatched"`
	ImmediateDispatched uint64 `json:"immediateDispatched"`
	StreamDispatched    uint64 `json:"streamDispatched"`
	Canceled            uint64 `json:"canceled"`
	WheelRotations      uint64 `json:"wheelRotations"`
	HorizonOverflow     uint64 `json:"horizonOverflow"`
}

// Snapshot copies the counters out. Call it after the run (or from the
// heartbeat callback) on the kernel's goroutine.
func (s *KernelStats) Snapshot() KernelSnapshot {
	return KernelSnapshot{
		HeapDispatched:      s.HeapDispatched,
		ImmediateDispatched: s.ImmediateDispatched,
		StreamDispatched:    s.StreamDispatched,
		Canceled:            s.Canceled,
	}
}

// Dispatched returns the total events dispatched across all paths.
func (s KernelSnapshot) Dispatched() uint64 {
	return s.HeapDispatched + s.ImmediateDispatched + s.StreamDispatched
}

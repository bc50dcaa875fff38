package sim

import (
	"errors"
	"testing"
	"time"
)

// TestPartitionedRunSeedLaw pins the per-shard seed law: shard i's kernel
// must behave exactly like New(seed + i), so a scenario that moves from a
// sequential per-shard loop onto the pool keeps its bytes.
func TestPartitionedRunSeedLaw(t *testing.T) {
	const seed, shards = 21, 6
	want := make([][3]float64, shards)
	for i := range want {
		rng := New(seed + int64(i)).Rand()
		want[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := PartitionedRun(shards, workers, seed, func(shard int, k *Kernel) ([3]float64, error) {
			rng := k.Rand()
			return [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d shard %d: draws %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPartitionedRunShardKernelsAreLive runs real events on every shard
// kernel concurrently and checks the merged results arrive in shard order
// with correct per-shard event accounting.
func TestPartitionedRunShardKernelsAreLive(t *testing.T) {
	type out struct {
		shard  int
		events uint64
	}
	outs, err := PartitionedRun(5, 4, 7, func(shard int, k *Kernel) (out, error) {
		for i := 0; i <= shard; i++ {
			k.AfterFunc(Time(i)*Time(time.Millisecond), func(Time) {})
		}
		k.Run()
		return out{shard: shard, events: k.Processed()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.shard != i {
			t.Errorf("slot %d holds shard %d", i, o.shard)
		}
		if o.events != uint64(i+1) {
			t.Errorf("shard %d processed %d events, want %d", i, o.events, i+1)
		}
	}
}

func TestPartitionedRunSurfacesLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	_, err := PartitionedRun(4, 4, 1, func(shard int, k *Kernel) (int, error) {
		if shard >= 2 {
			return 0, boom
		}
		return shard, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestPartitionedRunFailsOnShardBudget: a shard whose kernel stops on the
// event budget fails the whole run, although its function returned nil.
func TestPartitionedRunFailsOnShardBudget(t *testing.T) {
	_, err := PartitionedRun(3, 2, 1, func(shard int, k *Kernel) (int, error) {
		if shard == 1 {
			k.SetMaxEvents(50)
			var spin func(Time)
			spin = func(Time) { k.AfterFunc(time.Millisecond, spin) }
			k.AfterFunc(0, spin)
		}
		k.Run()
		return shard, nil
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mcs/internal/dist"
	"mcs/internal/scenario"
)

func expandDoc(doc string) (scenario.SweepJSON, string, []scenario.Cell, error) {
	return scenario.ExpandSweepDocument(json.RawMessage(doc))
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	res := &scenario.Result{Scenario: "banking", Seed: 9,
		Metrics: map[string]float64{"completed": 42}, Labels: map[string]string{"cell": "k0"}}

	completed, ckpt, err := dist.Resume(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 0 {
		t.Errorf("fresh checkpoint reports %d completed cells", len(completed))
	}
	if err := ckpt.Append(0, "k0", res); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	completed, ckpt, err = dist.Resume(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if len(completed) != 1 || completed[0] == nil {
		t.Fatalf("resume loaded %v, want cell 0", completed)
	}
	if completed[0].Metrics["completed"] != 42 {
		t.Errorf("resumed metrics = %v", completed[0].Metrics)
	}
}

func TestCheckpointRejectsForeignCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	_, ckpt, err := dist.Resume(path, "fp-one", 2)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Close()
	if _, _, err := dist.Resume(path, "fp-two", 2); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("foreign checkpoint accepted: %v", err)
	}
}

// TestCheckpointDropsTornTail: a writer killed mid-record leaves a
// truncated final line; Resume must drop it and keep the valid prefix.
func TestCheckpointDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	res := &scenario.Result{Scenario: "banking", Metrics: map[string]float64{}, Labels: map[string]string{"cell": "k"}}
	_, ckpt, err := dist.Resume(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Append(0, "k0", res)
	ckpt.Append(1, "k1", res)
	ckpt.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-17] // cut into the final record
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	completed, ckpt, err := dist.Resume(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if len(completed) != 1 || completed[0] == nil {
		t.Errorf("torn checkpoint loaded %d cells, want the 1 intact record", len(completed))
	}

	// The rewrite healed the file: loading again sees the same single cell.
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(healed), "\n"); lines != 2 {
		t.Errorf("healed checkpoint has %d lines, want header + 1 record", lines)
	}
}

// TestCheckpointIgnoresOutOfRangeRecords guards against a checkpoint from
// a same-fingerprint file hand-edited or corrupted into absurd indices.
func TestCheckpointIgnoresOutOfRangeRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	res := &scenario.Result{Scenario: "banking", Metrics: map[string]float64{}}
	_, ckpt, err := dist.Resume(path, "fp", 10)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Append(3, "k3", res)
	ckpt.Append(11, "k11", res) // out of range for totalCells=4 below
	ckpt.Close()

	completed, ckpt, err := dist.Resume(path, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if len(completed) != 1 || completed[3] == nil {
		t.Errorf("loaded %v, want only cell 3", completed)
	}
}

// FuzzCheckpointResume feeds arbitrary bytes to Resume, after a valid
// header and on their own. Resume must return an error or only in-range
// records that decode, never panic, and leave a file that reloads to the
// same records. The seeds are cuts of a real campaign's checkpoint.
func FuzzCheckpointResume(f *testing.F) {
	_, baseKind, cells, err := expandDoc(sweepDoc)
	if err != nil {
		f.Fatal(err)
	}
	fp, seed := dist.Fingerprint(baseKind, cells), filepath.Join(f.TempDir(), "seed.ckpt")
	coord, err := dist.NewCoordinator(localFleet(1), dist.Options{ShardSize: 1, Checkpoint: seed})
	if err == nil {
		_, _, err = coord.Run(context.Background(), json.RawMessage(sweepDoc))
	}
	data, _ := os.ReadFile(seed)
	header, records, ok := bytes.Cut(data, []byte("\n"))
	if err != nil || !ok {
		f.Fatalf("no seed checkpoint: %v", err)
	}
	f.Add(records)
	f.Add(records[:len(records)/2])
	f.Add(data)
	f.Fuzz(func(t *testing.T, tail []byte) {
		for _, body := range [][]byte{append(append(slices.Clip(header), '\n'), tail...), tail} {
			path := filepath.Join(t.TempDir(), "c.ckpt")
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			got, ckpt, err := dist.Resume(path, fp, len(cells))
			if err != nil {
				continue
			}
			ckpt.Close()
			for idx, res := range got {
				if _, err := json.Marshal(res); idx < 0 || idx >= len(cells) || res == nil || err != nil {
					t.Fatalf("Resume returned record %d = %v (%v) of %d cells", idx, res, err, len(cells))
				}
			}
			again, ckpt, err := dist.Resume(path, fp, len(cells))
			if err != nil || len(again) != len(got) {
				t.Fatalf("rewritten checkpoint reloads %d of %d records: %v", len(again), len(got), err)
			}
			ckpt.Close()
		}
	})
}

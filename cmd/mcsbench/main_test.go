package main

import (
	"os"
	"strings"
	"testing"
)

// captured runs the command with stdout redirected to a pipe-backed file.
func captured(t *testing.T, args []string) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run(args, tmp); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestListPrintsAllIDs(t *testing.T) {
	out := captured(t, []string{"-list"})
	want := "F1 F2 F3 F4 F5 T1 T2 T3 T4 T5 D3 D4 D5 D6"
	if got := strings.Join(strings.Fields(out), " "); got != want {
		t.Errorf("list = %q, want %q", got, want)
	}
}

func TestSingleExperimentQuick(t *testing.T) {
	out := captured(t, []string{"-experiment", "T5", "-quick"})
	if !strings.Contains(out, "comparison of fields") {
		t.Errorf("T5 output wrong:\n%s", out)
	}
	// Lowercase ids are accepted.
	out = captured(t, []string{"-experiment", "t1", "-quick"})
	if !strings.Contains(out, "overview of MCS") {
		t.Errorf("t1 output wrong:\n%s", out)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run([]string{"-experiment", "Z9"}, tmp); err == nil {
		t.Error("unknown experiment accepted")
	}
}

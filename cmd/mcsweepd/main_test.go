package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcs/internal/dist"
	"mcs/internal/scenario"
)

// TestDaemonServesWorkerProtocol boots the daemon on an ephemeral port and
// runs a small campaign against it through the HTTP worker — the same path
// `mcsim -distributed -connect` takes.
func TestDaemonServesWorkerProtocol(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var status strings.Builder
	go serve(t.Context(), ln, nil, &status)

	doc := `{
	  "kind": "sweep", "seed": 3,
	  "base": {"kind": "banking", "transactions": 80},
	  "grid": {"/discipline": ["edf", "fcfs"]}
	}`
	want, err := scenario.RunDocument(json.RawMessage(doc))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := dist.NewCoordinator([]dist.Worker{&dist.HTTP{Base: "http://" + ln.Addr().String()}}, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, fails, err := coord.Run(context.Background(), json.RawMessage(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("failures: %+v", fails)
	}
	gotBytes, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(wantBytes) {
		t.Errorf("daemon report diverged:\n got %s\nwant %s", gotBytes, wantBytes)
	}
}

// TestServeShutsDownOnCancel: canceling serve's context (what SIGTERM and
// SIGINT do) closes the listener and makes serve return nil.
func TestServeShutsDownOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var status strings.Builder
	go func() { done <- serve(ctx, ln, nil, &status) }()
	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve still running 10s after cancel")
	}
	if !strings.Contains(status.String(), "shutting down") {
		t.Errorf("status does not report the shutdown:\n%s", status.String())
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepts after shutdown")
	}
}

func TestRunRejectsBadAddress(t *testing.T) {
	if err := run(context.Background(), []string{"-listen", "256.0.0.1:bad"}, io.Discard); err == nil {
		t.Error("bad listen address accepted")
	}
}

func TestRunRejectsBadDebugAddress(t *testing.T) {
	if err := run(context.Background(), []string{"-listen", "127.0.0.1:0", "-debug-addr", "256.0.0.1:bad"}, io.Discard); err == nil {
		t.Error("bad debug address accepted")
	}
}

// TestDebugSurfaceServesPprofAndExpvar: -debug-addr exposes the Go
// diagnostic mux — pprof index and the expvar dump carrying the daemon's
// republished metrics — on its own listener, separate from the protocol.
func TestDebugSurfaceServesPprofAndExpvar(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	debugLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer debugLn.Close()
	var status strings.Builder
	go serve(t.Context(), ln, debugLn, &status)

	for path, want := range map[string]string{
		"/debug/pprof/": "profiles",
		"/debug/vars":   "mcsweepd_cells_run_total",
	} {
		resp, err := http.Get("http://" + debugLn.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s missing %q:\n%.400s", path, want, body)
		}
	}

	// The protocol listener must also answer /metrics now.
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "# TYPE mcsweepd_uptime_seconds gauge") {
		t.Errorf("/metrics scrape missing uptime gauge:\n%.400s", body)
	}
}

// spaces is an endless body of ASCII spaces — JSON whitespace — so an
// oversized request costs the client nothing to produce.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizedWorkUnitRejected: a POST /run body past the daemon's bound
// is answered 413 instead of being buffered without limit, and the daemon
// then still runs a normal unit.
func TestOversizedWorkUnitRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go serve(t.Context(), ln, nil, io.Discard)
	base := "http://" + ln.Addr().String()

	body := io.MultiReader(io.LimitReader(spaces{}, 32<<20), strings.NewReader(` {"id": 1, "cells": []}`))
	resp, err := http.Post(base+"/run", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized unit: status %d (%s), want 413", resp.StatusCode, msg)
	}

	worker := &dist.HTTP{Base: base}
	cell := dist.CellSpec{Index: 0, Key: "k", Seed: 3, Doc: json.RawMessage(`{"kind": "banking", "transactions": 40}`)}
	var got []dist.CellResult
	if err := worker.Run(context.Background(), dist.WorkUnit{ID: 2, Cells: []dist.CellSpec{cell}}, func(r dist.CellResult) {
		got = append(got, r)
	}); err != nil {
		t.Fatalf("normal unit after the oversized one: %v", err)
	}
	if len(got) != 1 || got[0].Err != "" || got[0].Result == nil {
		t.Fatalf("normal unit results = %+v", got)
	}
}

// TestDaemonFailsMisspelledCell: a work unit whose cell is the datacenter
// golden with "machines" spelled "machnes" gets, through POST /run, a cell
// result whose error names the field. The unit itself succeeds, so a
// coordinator records the cell as a scenario failure, not a lost worker.
func TestDaemonFailsMisspelledCell(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "scenario", "testdata", "golden", "datacenter.doc.json"))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go serve(t.Context(), ln, nil, io.Discard)

	doc := strings.Replace(string(golden), `"machines"`, `"machnes"`, 1)
	unit := dist.WorkUnit{Cells: []dist.CellSpec{{Key: "machnes", Seed: 1, Doc: json.RawMessage(doc)}}}
	var results []dist.CellResult
	w := &dist.HTTP{Base: "http://" + ln.Addr().String()}
	if err := w.Run(context.Background(), unit, func(r dist.CellResult) { results = append(results, r) }); err != nil {
		t.Fatalf("POST /run failed as a worker error: %v", err)
	}
	if len(results) != 1 || results[0].Result != nil || !strings.Contains(results[0].Err, `unknown field "machnes"`) {
		t.Errorf("cell results %+v, want one error naming \"machnes\"", results)
	}
}

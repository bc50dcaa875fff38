// Command mcsbench prints the paper-reproduction experiments that still run
// as fixed compositions of several models: one per figure (F1–F5) and table
// (T1–T5) of the paper, plus the derived quantitative experiments D3–D6.
//
// Usage:
//
//	mcsbench -experiment all          # run everything (full sizes)
//	mcsbench -experiment F3 -quick    # one experiment at unit-test scale
//	mcsbench -list                    # enumerate experiment ids
//
// Experiments that are runs of one registered scenario kind are scenario
// documents instead, run by cmd/mcsim and pinned in the golden corpus:
// D1, D2 and the F5 keep-warm sweep live under examples/paper. F5 and T4
// print the paper's data with the document or kind that runs each row, and
// T1 and T5 print paper data only. The rest (F1–F4, T2, T3, D3–D6) need a
// document field or metric no kind has yet, and move to documents as kinds
// gain them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mcs/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcsbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("mcsbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment id (F1..F5, T1..T5, D3..D6) or 'all'")
		quick      = fs.Bool("quick", false, "run at reduced (unit-test) scale")
		seed       = fs.Int64("seed", 0, "override the experiment seed (0 = per-experiment default)")
		list       = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	ids := experiments.IDs()
	if !strings.EqualFold(*experiment, "all") {
		ids = []string{strings.ToUpper(*experiment)}
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id, opts)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if err := rep.Fprint(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

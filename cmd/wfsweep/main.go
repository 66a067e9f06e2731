// Command wfsweep runs parallel ensemble studies — Monte Carlo contention
// trials, what-if scenario grids, archetype shape surveys, failure
// ensembles, and generated-scenario corpora — over the
// sweep worker pool. A JSON spec goes in; an aligned-text, CSV, or Markdown
// report comes out. Results are bit-identical at any worker count: per-trial
// RNGs are seeded from (seed, trial index) and results aggregate in trial
// order.
//
// The spec format and runners live in internal/study, shared with the
// wfserved analysis service: a spec tested here runs unchanged against
// POST /v1/sweep.
//
// Usage:
//
//	wfsweep -spec sweep.json              # run the spec
//	wfsweep -spec - < sweep.json          # read the spec from stdin
//	wfsweep -spec sweep.json -workers 4   # override the pool size
//	wfsweep -spec sweep.json -batch 256   # trials per batch-executor call
//	wfsweep -spec sweep.json -format csv  # table (default), csv, markdown
//	wfsweep -example montecarlo           # print a template spec and exit
//
// Spec shapes (one "kind" per spec):
//
//	{"kind": "montecarlo", "case": "lcls-cori", "trials": 10000, "seed": 7,
//	 "streams": 5,
//	 "sampler": {"model": "twostate", "base": "1 GB/s",
//	             "degraded": "0.2 GB/s", "p_bad": 0.4}}
//
//	{"kind": "grid", "case": "lcls-cori", "p": 5,
//	 "resources": [{"resource": "memory", "factors": [1, 2, 10]}],
//	 "wall_factors": [1, 2], "intra_task": [{"k": 2, "efficiency": 0.9}]}
//
//	{"kind": "survey", "machine": "perlmutter", "partition": "cpu",
//	 "widths": [4, 8, 16], "depths": [2, 3], "nodes_per_task": 2,
//	 "work": {"flops": "5 TFLOP", "fs": "100 GB"}}
//
//	{"kind": "failures", "case": "lcls-cori", "trials": 200, "seed": 7,
//	 "failure": {"task_fail_prob": 0.02, "restage_rate": "1 GB/s",
//	             "retry": {"max_attempts": 5, "backoff_seconds": 1}}}
//
//	{"kind": "corpus", "machine": "perlmutter-numa", "count": 1000, "seed": 11,
//	 "families": ["chain", "montage"],
//	 "template": {"width": 8, "depth": 4, "cv": 0.4, "payload": "1 GB"}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"wroofline/internal/study"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wfsweep:", err)
		os.Exit(1)
	}
}

// run is the testable entry point.
func run(ctx context.Context, args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("wfsweep", flag.ContinueOnError)
	specPath := fs.String("spec", "", "JSON spec file ('-' reads stdin)")
	workers := fs.Int("workers", -1, "worker pool size (overrides the spec; 0 = GOMAXPROCS)")
	batch := fs.Int("batch", -1, "trials per batch-executor call (overrides the spec; 0 = auto)")
	format := fs.String("format", "table", "output format: table, csv, or markdown")
	example := fs.String("example", "", "print a template spec (montecarlo, grid, survey, failures, corpus) and exit")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *example != "" {
		return printExample(out, *example)
	}
	if *specPath == "" {
		return fmt.Errorf("missing -spec (use -example montecarlo|grid|survey|failures|corpus for a template)")
	}
	var data []byte
	var err error
	if *specPath == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(*specPath)
	}
	if err != nil {
		return err
	}
	spec, err := study.ParseSpec(data)
	if err != nil {
		return err
	}
	if *workers >= 0 {
		spec.Workers = *workers
	}
	if *batch >= 0 {
		spec.Batch = *batch
	}
	tables, err := study.RunStreamCached(ctx, spec, nil, nil)
	if err != nil {
		return err
	}
	for i, tbl := range tables {
		if i > 0 {
			fmt.Fprintln(out)
		}
		text, err := tbl.Render(*format)
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
	}
	return nil
}

// printExample writes a ready-to-edit template spec.
func printExample(out io.Writer, kind string) error {
	spec, err := study.Example(kind)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}

package study

import (
	"context"
	"strings"
	"testing"
)

// TestSurveyRejectsBadInputs pins which survey inputs fail and which cell
// each failure is reported against: cells run in (shape, width, depth)
// row-major order over bag-of-tasks, pipeline, fork-join, map-reduce and
// scatter-gather, and the lowest-index failing cell is the error the survey
// reports. A shape ignores the dimensions it does not read, so a bad depth
// is first reported by pipeline, the first shape that reads one. Within a
// cell a shape error outranks a machine error. An unknown machine fails
// before any cell runs.
func TestSurveyRejectsBadInputs(t *testing.T) {
	for _, tc := range []struct {
		name           string
		widths, depths []int
		nodesPerTask   int
		machine, part  string
		want           string
	}{
		{name: "zero width", widths: []int{0}, depths: []int{2},
			want: "bag-of-tasks w=0 d=2:"},
		{name: "negative width", widths: []int{4, -3}, depths: []int{2, 3},
			want: "bag-of-tasks w=-3 d=2:"},
		{name: "zero depth", widths: []int{4}, depths: []int{0},
			want: "pipeline w=4 d=0:"},
		{name: "negative depth", widths: []int{4, 8}, depths: []int{2, -1},
			want: "pipeline w=4 d=-1:"},
		{name: "nodes per task over the partition", widths: []int{4, 8}, depths: []int{2, 3},
			nodesPerTask: 100000, want: "bag-of-tasks w=4 d=2:"},
		{name: "shape error outranks nodes per task", widths: []int{0}, depths: []int{2},
			nodesPerTask: 100000, want: "bag-of-tasks w=0 d=2:"},
		{name: "unknown partition", widths: []int{4, 8}, depths: []int{2, 3},
			part: "nope", want: "bag-of-tasks w=4 d=2:"},
		{name: "unknown machine", widths: []int{4}, depths: []int{2},
			machine: "nowhere", want: "nowhere"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &Spec{
				Kind: "survey", Machine: "perlmutter", Partition: tc.part,
				Widths: tc.widths, Depths: tc.depths, NodesPerTask: tc.nodesPerTask,
				Work: &WorkSpec{Flops: "5 TFLOP", FS: "100 GB"},
			}
			if tc.machine != "" {
				spec.Machine = tc.machine
			}
			for _, workers := range []int{1, 3} {
				spec.Workers = workers
				_, err := RunStreamCached(context.Background(), spec, nil, nil)
				if err == nil {
					t.Fatalf("workers=%d: survey succeeded, want an error naming %q", workers, tc.want)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("workers=%d: err = %v, want it to name %q", workers, err, tc.want)
				}
			}
		})
	}
}

package study

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func surveySpec(widths, depths []int, workers int) *Spec {
	return &Spec{
		Kind: "survey", Machine: "perlmutter", Partition: "cpu",
		Widths: widths, Depths: depths, NodesPerTask: 2, Workers: workers,
		Work: &WorkSpec{Flops: "5 TFLOP", FS: "100 GB"},
	}
}

// TestSurveyCoversTheGrid checks the survey's rows: (shape, width, depth)
// row-major with the depth varying fastest, each shape's task count its
// archetype's closed form, and one wall, bound and ceiling for every cell.
func TestSurveyCoversTheGrid(t *testing.T) {
	widths, depths := []int{4, 8}, []int{2, 3}
	tables, err := RunStreamCached(context.Background(), surveySpec(widths, depths, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tasks := map[string]func(w, d int) int{
		"bag-of-tasks":   func(w, _ int) int { return w },
		"pipeline":       func(_, d int) int { return d },
		"fork-join":      func(w, _ int) int { return w + 2 },
		"map-reduce":     func(w, d int) int { return d * (w + 1) },
		"scatter-gather": func(_, d int) int { return 3<<d - 2 },
	}
	rows := tableRows(t, tables[0])
	if len(rows) != len(surveyShapes)*len(widths)*len(depths) {
		t.Fatalf("rows = %d", len(rows))
	}
	i := 0
	for _, sh := range surveyShapes {
		for _, w := range widths {
			for _, d := range depths {
				row := rows[i]
				want := []string{sh.name, fmt.Sprint(w), fmt.Sprint(d), fmt.Sprint(tasks[sh.name](w, d))}
				if strings.Join(row[:4], " ") != strings.Join(want, " ") {
					t.Errorf("row %d = %v, want %v", i, row[:4], want)
				}
				if row[4] != rows[0][4] || row[5] != rows[0][5] || row[6] != rows[0][6] || row[6] == "" {
					t.Errorf("row %d wall/bound/ceiling %v differ from row 0 %v", i, row[4:], rows[0][4:])
				}
				i++
			}
		}
	}
	if hist := tableRows(t, tables[1]); len(hist) != 1 || hist[0][1] != fmt.Sprint(len(rows)) {
		t.Errorf("ceiling histogram = %v, want one ceiling over %d shapes", hist, len(rows))
	}
}

// TestSurveyWorkerCountInvariance: the worker count never changes the bytes.
func TestSurveyWorkerCountInvariance(t *testing.T) {
	widths, depths := []int{2, 4, 8}, []int{2, 4}
	base, err := RunStreamCached(context.Background(), surveySpec(widths, depths, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := RunStreamCached(context.Background(), surveySpec(widths, depths, workers), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if renderTables(t, got) != renderTables(t, base) {
			t.Fatalf("workers=%d: survey differs", workers)
		}
	}
}

// TestSurveyErrors covers the survey's limits. Every cell is closed-form,
// so an absurd width fails at once in bounded memory; wfgen.MaxTasks caps
// every shape; a negative node count is an error, not a silent 1;
// scatter-gather takes any depth under the task cap; a cancelled context
// stops the survey.
func TestSurveyErrors(t *testing.T) {
	run := func(spec *Spec) error {
		_, err := RunStreamCached(context.Background(), spec, nil, nil)
		return err
	}
	for _, tc := range []struct {
		name  string
		spec  *Spec
		wants []string
	}{
		{"negative nodes per task", &Spec{Kind: "survey", Machine: "perlmutter", NodesPerTask: -3,
			Work: &WorkSpec{Flops: "5 TFLOP"}},
			[]string{"bag-of-tasks w=4 d=2:", "nodes per task must be positive, got -3"}},
		{"width 2^40", surveySpec([]int{1 << 40}, []int{1}, 1),
			[]string{"bag-of-tasks w=1099511627776 d=1:", "width"}},
		{"fork-join over the task cap", surveySpec([]int{999999}, []int{1}, 1),
			[]string{"fork-join w=999999 d=1:", "cap"}},
		{"scatter-gather over the task cap", surveySpec([]int{1}, []int{18, 19}, 1),
			[]string{"scatter-gather w=1 d=19:", "cap"}},
		{"PCIe work on a partition without PCIe", &Spec{Kind: "survey", Machine: "perlmutter", Partition: "cpu",
			Work: &WorkSpec{PCIe: "1 GB"}},
			[]string{"bag-of-tasks w=4 d=2:", "moves PCIe data but partition Perlmutter/cpu has no PCIe bandwidth"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.spec)
			if err == nil {
				t.Fatal("survey succeeded")
			}
			for _, want := range tc.wants {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("err = %v, want %q", err, want)
				}
			}
		})
	}

	huge := surveySpec([]int{1 << 40}, []int{1}, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		_ = run(huge)
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 256<<10 {
		t.Errorf("a width-2^40 survey allocated %d bytes before failing, want under 256 KiB", perRun)
	}

	tables, err := RunStreamCached(context.Background(), surveySpec([]int{1}, []int{18}, 1), nil, nil)
	if err != nil {
		t.Fatalf("scatter-gather depth 18: %v", err)
	}
	if rows := tableRows(t, tables[0]); rows[len(rows)-1][3] != fmt.Sprint(3<<18-2) {
		t.Errorf("scatter-gather depth 18 row = %v, want %d tasks", rows[len(rows)-1], 3<<18-2)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStreamCached(ctx, surveySpec([]int{4}, []int{2}, 1), nil, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled survey: err = %v, want context.Canceled", err)
	}
}

// TestSurveyDefaultPartition: a survey that names no partition runs on cpu
// when the machine has one and otherwise on the machine's only partition.
func TestSurveyDefaultPartition(t *testing.T) {
	for machine, want := range map[string]string{
		"perlmutter": "on Perlmutter/cpu",
		"cori":       "on Cori/haswell",
	} {
		spec := &Spec{Kind: "survey", Machine: machine, Work: &WorkSpec{Flops: "5 TFLOP", FS: "100 GB"}}
		tables, err := RunStreamCached(context.Background(), spec, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", machine, err)
		}
		if title := tables[0].Title; !strings.Contains(title, want) {
			t.Errorf("%s: title %q, want it to contain %q", machine, title, want)
		}
	}
}

package wfgen

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzWfgenSpec drives the strict spec parser with arbitrary bytes. For any
// input the parser must not panic; every error must be attributed to the
// package (or be a JSON syntax/type error); and any accepted spec must have
// a consistent closed-form shape, survive a Marshal/parseSpec round trip,
// and — when small enough to build quickly — generate a DAG matching that
// shape.
func FuzzWfgenSpec(f *testing.F) {
	seeds := []string{
		`{"family":"chain","depth":5,"seed":1}`,
		`{"family":"fanout","width":32,"seed":7,"cv":0.3}`,
		`{"family":"diamond","width":4,"depth":3,"payload":"1 GB"}`,
		`{"family":"montage","width":8,"flops":"2 TFLOP","mem":"100 GB"}`,
		`{"family":"epigenomics","width":6,"depth":4,"fs":"20 GB","net":"2 GB"}`,
		`{"family":"chain","nodes_per_task":4,"partition":"gpu"}`,
		`{"family":"fanout","width":-1}`,
		`{"family":"butterfly"}`,
		`{"family":"chain","flops":"5 parsecs"}`,
		`{"family":"diamond","width":99999,"depth":99999}`,
		`{"family":"fanout","width":9223372036854775806}`,
		`{"family":"epigenomics","width":4294967296,"depth":4294967296}`,
		`{}`,
		`[]`,
		`{"family":"chain","cv":1e308}`,
		`{"family":"bag","width":12,"cv":0.4,"payload":"1 GB"}`,
		`{"family":"mapreduce","width":5,"depth":3,"seed":4}`,
		`{"family":"scatter","depth":4,"nodes_per_task":2}`,
		`{"family":"scatter","depth":18}`,
		`{"family":"scatter","depth":19}`,
		`{"family":"scatter","depth":64}`,
		`{"family":"scatter","depth":4294967296}`,
		`{"family":"mapreduce","width":1000000,"depth":1000000}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := parseSpec(data)
		if err != nil {
			var syn *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if errors.As(err, &syn) || errors.As(err, &typ) {
				return
			}
			if !strings.Contains(err.Error(), "wfgen") &&
				!strings.Contains(err.Error(), "units") &&
				!strings.Contains(err.Error(), "json") {
				t.Fatalf("unattributed error: %v", err)
			}
			return
		}
		shape, err := spec.Shape()
		if err != nil {
			t.Fatalf("accepted spec has no shape: %v", err)
		}
		if shape.Tasks < 1 || shape.Width < 1 || shape.Levels < 1 ||
			shape.Tasks > MaxTasks || shape.Width > shape.Tasks || shape.Levels > shape.Tasks {
			t.Fatalf("inconsistent shape %+v for %+v", shape, spec)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		spec2, err := parseSpec(enc)
		if err != nil {
			t.Fatalf("re-parse of marshaled spec failed: %v", err)
		}
		if *spec != *spec2 {
			t.Fatalf("round trip drifted: %+v vs %+v", spec, spec2)
		}
		if shape.Tasks <= 2000 {
			wf, err := Generate(spec)
			if err != nil {
				t.Fatalf("accepted spec failed to generate: %v", err)
			}
			if wf.TotalTasks() != shape.Tasks {
				t.Fatalf("generated %d tasks, shape says %d", wf.TotalTasks(), shape.Tasks)
			}
			if _, err := wf.Graph().TopoSort(); err != nil {
				t.Fatalf("generated graph not a DAG: %v", err)
			}
		}
	})
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"wroofline/internal/study"
)

// TestRenderSweepAllocs is the rendering floor: a sweep body is appended
// into one buffer of exactly its length, so rendering costs one allocation
// whatever the kind and table count, and leaves no spare capacity for the
// response cache to keep. Encoding through encoding/json's reflection again
// would allocate more. The bytes are checked against encoding/json's
// rendering of SweepResponse.
func TestRenderSweepAllocs(t *testing.T) {
	for _, tc := range sweepGoldenSpecs() {
		spec, err := study.ParseSpec([]byte(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		tables, err := study.RunStreamCached(context.Background(), spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		body := renderSweep(spec.Kind, tables)
		want, err := json.Marshal(SweepResponse{Kind: spec.Kind, Tables: tables})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("%s: rendered body differs from encoding/json:\n got  %s\n want %s", tc.name, body, want)
		}
		if len(body) != cap(body) {
			t.Errorf("%s: body length %d, capacity %d", tc.name, len(body), cap(body))
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(50, func() { renderSweep(spec.Kind, tables) }); allocs != 1 {
			t.Errorf("%s: rendering allocates %.1f per body, want 1", tc.name, allocs)
		}
	}
}

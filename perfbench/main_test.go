package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsShort runs every workload briefly with the layer replay on
// and checks that each metric BENCHMARK.json names is reported with its
// unit and that no answer was wrong.
func TestWorkloadsShort(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"point", "batch", "mutate"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			rep, err := run(&out, config{workload: name, seed: 7, seconds: 1, trace: true, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || bytes.Contains(out.Bytes(), []byte("WRONG")) {
				t.Fatalf("wrong answers:\n%s", out.String())
			}
			if rep.Attempted < 1 {
				t.Fatalf("attempted %d operations", rep.Attempted)
			}
			for _, m := range spec.EndToEnd {
				line := regexp.MustCompile(fmt.Sprintf(`(?m)^e2e %s %s [-0-9.e+]+ %s `,
					name, regexp.QuoteMeta(m.Name), regexp.QuoteMeta(m.Unit)))
				if !line.Match(out.Bytes()) {
					t.Errorf("end-to-end metric %s (%s) not printed", m.Name, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s (%s): got %+v, present %t", m.Name, m.Unit, got, ok)
				}
			}
			if len(rep.Metrics) != len(spec.PerLayer) {
				t.Errorf("reported %d per-layer metrics, BENCHMARK.json names %d", len(rep.Metrics), len(spec.PerLayer))
			}
			if t.Failed() {
				t.Logf("output:\n%s", out.String())
			}
		})
	}
}

package scenario

import (
	"bytes"
	"testing"
)

// FuzzParse holds admission to runtime: Parse never panics, and every
// spec it accepts is one whose run world sets up — graph, world, routes,
// reaction wiring and injectors — with no error. The committed corpus
// (testdata/fuzz/FuzzParse) is examples/scenarios/*.json plus three specs
// that once passed Parse and failed as jobs: a flap with a zero period,
// a cut of a link the topology lacks, and a flow from a missing node.
// The seeds added here write a duration escaped (which Duration leaves
// to encoding/json) and with a non-ASCII µ (which it reads in place).
func FuzzParse(f *testing.F) {
	for _, drain := range []string{`"\u0031ms"`, `"1µs"`, `"1\u00b5s"`} {
		f.Add([]byte(`{"name": "durations", "topology": "net15", "policy": "nip", "seed": 1, "runs": 1,
  "duration": "20ms", "drain": ` + drain + `, "flows": [{"src": "AS1", "dst": "AS3", "interval": "1ms"}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, _, err := setup(spec, 0, spec.Seed, &RunOptions{}); err != nil {
			t.Fatalf("Parse accepted a spec whose setup fails: %v", err)
		}
	})
}

package expt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"spybox/pkg/spybox/report"
)

// jsonGoldenExperiments freeze the JSON schema for one single-shot
// experiment (fig4) and one trial-decomposed experiment (fig9): any
// change to the document layout, record kinds, field keys/units, or
// metric encoding shows up as a golden diff — and a deliberate change
// must come with a schema version bump (see report.Schema and the
// version policy in the README). A change of values alone, same shape,
// is a simulator model change and bumps sim.ModelVersion instead.
var jsonGoldenExperiments = []string{"fig4", "fig9"}

// TestGoldenJSON pins the schema-versioned JSON encoding at the
// default seed, then round-trips the golden document: decoding and
// re-encoding must reproduce it byte-for-byte, the stability external
// tooling relies on. Regenerate with -update only alongside a
// reviewed schema or model version change.
func TestGoldenJSON(t *testing.T) {
	t.Parallel()
	p := Params{Seed: 20230612, Scale: Small, Parallel: 1, Arch: "p100-dgx1"}
	for _, id := range jsonGoldenExperiments {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			r, err := e.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := report.Encode(&buf, r); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+id+".json")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s JSON diverged from the golden schema file.\n"+
					"got %d bytes, want %d; first divergence near byte %d\n"+
					"(intended new values need a sim.ModelVersion bump; only a layout change needs a report.Schema bump)",
					id, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
			}

			// Decode-and-re-encode stability over the *golden* bytes:
			// what a consumer wrote yesterday must re-encode
			// identically today.
			decoded, err := report.Decode(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("golden document does not decode: %v", err)
			}
			var again bytes.Buffer
			if err := report.Encode(&again, decoded...); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), want) {
				t.Errorf("%s: encode(decode(golden)) != golden; first divergence near byte %d",
					id, firstDiff(again.Bytes(), want))
			}
		})
	}
}

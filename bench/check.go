package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spybox/pkg/spybox"
)

// goldenSets are the committed reports the correctness check reruns at
// the reference seed and small scale: each file holds the text reports
// of its experiments, in order, on its architecture.
var goldenSets = []struct {
	arch string
	ids  []string
	file string
}{
	{"p100-dgx1", []string{"fig4", "table1", "fig10"}, "golden_p100_small.txt"},
	{"v100-dgx2", []string{"sec7", "fabricsweep"}, "golden_v100_small.txt"},
}

// checkGoldens reruns every golden set and compares the reports byte
// for byte with the files under root/internal/expt/testdata.
func checkGoldens(ctx context.Context, root string) error {
	for _, g := range goldenSets {
		path := filepath.Join(root, "internal", "expt", "testdata", g.file)
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sess, err := spybox.Open(spybox.Config{Seed: spybox.DefaultSeed, Scale: spybox.Small, Arch: g.arch, Parallel: 1})
		if err != nil {
			return err
		}
		rs, err := sess.Run(ctx, g.ids...)
		if err != nil {
			return err
		}
		var got bytes.Buffer
		for _, r := range rs {
			if err := r.Print(&got); err != nil {
				return err
			}
		}
		if !bytes.Equal(got.Bytes(), want) {
			return fmt.Errorf("%s on %s differs from %s", strings.Join(g.ids, ","), g.arch, path)
		}
	}
	return nil
}

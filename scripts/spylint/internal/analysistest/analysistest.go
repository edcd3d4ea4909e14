// Package analysistest runs spylint analyzers over self-contained
// fixture modules and checks their diagnostics against `// want`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library only.
//
// A fixture is a directory containing its own go.mod (so the parent
// module's package walk never sees it) plus Go sources annotated with
// expectations:
//
//	x := make([]int, 4) // want `make allocates on the hot path rooted at Step`
//
// Each expectation is a regexp in backquotes or double quotes; several
// may follow one `// want`. Every diagnostic must match an expectation
// on its exact file:line and every expectation must be consumed, or
// the test fails.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"spylint/internal/framework"
)

// wantRe matches one quoted expectation: `re` or "re".
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run analyzes ./... of the fixture module rooted at dir with the
// given analyzers and compares diagnostics with // want expectations.
func Run(t *testing.T, dir string, analyzers []*framework.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := collectWants(abs)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := framework.RunStandalone(abs, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatalf("analyzing %s: %v", dir, err)
	}
	for _, d := range diags {
		if !want.match(d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range want.unmatched() {
		t.Errorf("expected diagnostic not reported:\n  %s:%d: matching %q", w.file, w.line, w.re)
	}
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

type wants struct{ list []*expectation }

func (w *wants) match(file string, line int, msg string) bool {
	for _, e := range w.list {
		if e.file == file && e.line == line && e.re.MatchString(msg) {
			e.hit = true
			return true
		}
	}
	return false
}

func (w *wants) unmatched() []*expectation {
	var out []*expectation
	for _, e := range w.list {
		if !e.hit {
			out = append(out, e)
		}
	}
	return out
}

// collectWants scans every fixture .go file for // want comments.
// Scanning is textual (line-oriented) rather than AST-based so
// expectations may sit on lines the parser attaches no comment to.
func collectWants(root string) (*wants, error) {
	w := &wants{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, after, found := strings.Cut(line, "// want ")
			if !found {
				continue
			}
			ms := wantRe.FindAllStringSubmatch(after, -1)
			if len(ms) == 0 {
				return fmt.Errorf("%s:%d: malformed // want: no quoted regexp", path, i+1)
			}
			for _, m := range ms {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s:%d: bad // want regexp: %v", path, i+1, err)
				}
				w.list = append(w.list, &expectation{file: path, line: i + 1, re: re})
			}
		}
		return nil
	})
	return w, err
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json that compare reads: each
// gated metric's direction and bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// metricSet is every value a set of runs gave one metric, per
// workload, in first-seen order.
type metricSet struct {
	workloads []string
	names     map[string][]string
	values    map[[2]string][]float64
	units     map[string]string
}

func collect(runs []runRecord) *metricSet {
	ms := &metricSet{names: map[string][]string{}, values: map[[2]string][]float64{}, units: map[string]string{}}
	for _, r := range runs {
		if _, ok := ms.names[r.Workload]; !ok {
			ms.workloads = append(ms.workloads, r.Workload)
			ms.names[r.Workload] = nil
		}
		for _, s := range append(append([]sample(nil), r.Metrics...), r.Extra...) {
			k := [2]string{r.Workload, s.Name}
			if _, ok := ms.values[k]; !ok {
				ms.names[r.Workload] = append(ms.names[r.Workload], s.Name)
			}
			ms.values[k] = append(ms.values[k], s.Value)
			ms.units[s.Name] = s.Unit
		}
	}
	return ms
}

// spread is the interquartile range as a share of the median.
func spread(q1, med, q3 float64) float64 { return (q3 - q1) / math.Abs(med) }

// printSummary prints each metric's median, quartiles and spread over
// a set of runs.
func printSummary(w io.Writer, runs []runRecord) {
	ms := collect(runs)
	for _, wl := range ms.workloads {
		for _, name := range ms.names[wl] {
			vs := ms.values[[2]string{wl, name}]
			q1, med, q3 := quartiles(vs)
			fmt.Fprintf(w, "%-12s %-26s median %-10.5g q1 %-10.5g q3 %-10.5g %-6s n=%-3d spread %.1f%%\n",
				wl, name, med, q1, q3, ms.units[name], len(vs), 100*spread(q1, med, q3))
		}
	}
}

// compare prints two sets of runs side by side. For every end-to-end
// metric it says whether the medians agree within the metric's bound
// from the spec file, and reports the metric as unresolved when either
// set's spread exceeds the bound.
func compare(w io.Writer, specPath, pathA, pathB string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	fa, err := readResults(pathA)
	if err != nil {
		return err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return err
	}
	a, bs := collect(fa.Runs), collect(fb.Runs)
	fmt.Fprintf(w, "A = %s\nB = %s\n", pathA, pathB)
	for _, wl := range a.workloads {
		for _, name := range a.names[wl] {
			va, vb := a.values[[2]string{wl, name}], bs.values[[2]string{wl, name}]
			if len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-12s %-26s A %-10.5g [%.5g, %.5g] n=%-3d B %-10.5g [%.5g, %.5g] n=%-3d %+6.1f%%  ",
				wl, name, am, a1, a3, len(va), bm, b1, b3, len(vb), 100*(bm-am)/math.Abs(am))
			verdict := "no bound"
			for _, m := range spec.EndToEnd {
				if m.Name != name {
					continue
				}
				worse := (bm - am) / math.Abs(am)
				if m.Better == "higher" {
					worse = -worse
				}
				switch sa, sb := spread(a1, am, a3), spread(b1, bm, b3); {
				case sa > m.Bound || sb > m.Bound:
					verdict = fmt.Sprintf("unresolved: spread %.1f%%/%.1f%% exceeds bound %.0f%%", 100*sa, 100*sb, 100*m.Bound)
				case worse > m.Bound:
					verdict = fmt.Sprintf("B worse beyond bound %.0f%%", 100*m.Bound)
				case -worse > m.Bound:
					verdict = fmt.Sprintf("B better beyond bound %.0f%%", 100*m.Bound)
				default:
					verdict = fmt.Sprintf("agree within bound %.0f%%", 100*m.Bound)
				}
			}
			fmt.Fprintln(w, verdict)
		}
	}
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runCompare is the regression gate: it reads two -out files (every
// run of the parent commit, every run of the change), and for each
// (workload, end-to-end metric) applies the metric's bound to the two
// medians. A metric whose run-to-run quartile spread, on either side,
// is wider than its bound cannot resolve a change of that size and is
// reported as unresolved instead of unchanged. Exit status is
// non-zero when any metric is worse.
func runCompare(parentPath, childPath string, stdout, stderr io.Writer) int {
	parent, err := loadRuns(parentPath)
	if err == nil {
		var child map[string]map[string][]float64
		if child, err = loadRuns(childPath); err == nil {
			return compareRuns(parent, child, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// loadRuns groups the untraced, correct runs of an -out file as
// workload -> metric -> values.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: an incorrect run of %s cannot be compared", path, rec.Workload)
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

func compareRuns(parent, child map[string]map[string][]float64, w io.Writer) int {
	worse := 0
	fmt.Fprintf(w, "%-18s %-16s %-10s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "verdict", "parent", "child", "change", "bound", "spread", "runs")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			p, c := parent[wl.Name][m.Name], child[wl.Name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			p1, pm, p3 := quartiles(p)
			c1, cm, c3 := quartiles(c)
			// change > 0 means worse, as a share of the parent's median
			change := (cm - pm) / pm
			if m.Better == "higher" {
				change = -change
			}
			spread := max((p3-p1)/pm, (c3-c1)/cm)
			verdict := "same"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "WORSE"
				worse++
			case change < -spread:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-18s %-16s %-10s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%%  %d/%d\n",
				wl.Name, m.Name, verdict, pm, cm, 100*change, 100*m.Bound, 100*spread, len(p), len(c))
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d metric(s) worse than the parent by more than their bound\n", worse)
		return 1
	}
	return 0
}

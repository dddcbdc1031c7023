package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// metricValues gathers one end-to-end metric of one workload across sets.
func metricValues(sets []*resultSet, workload, name string) []float64 {
	var v []float64
	for _, s := range sets {
		for _, w := range s.Workloads {
			if m, ok := w.Metrics[name]; ok && w.Name == workload {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// spread is the run-to-run spread of one side as a share of its median:
// the interquartile distance with four or more runs, the full range with
// two or three, and unknown (0) with one.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / med
}

// judge compares the new side's median with the old side's. A metric is
// worse when its median moved the wrong way by more than the bound. When
// the old side's own spread is wider than the bound the difference cannot
// be told from noise: unresolved — unless every new run beats every old one.
func judge(d metricDecl, old, new []float64) (rel float64, verdict string) {
	om, nm := median(old), median(new)
	rel = (nm - om) / om
	worseBy := rel
	if d.better == "higher" {
		worseBy = -rel
	}
	if spread(old) > d.bound {
		allBetter := true
		for _, n := range new {
			for _, o := range old {
				if (d.better == "higher" && n <= o) || (d.better == "lower" && n >= o) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return rel, verdictOK
		}
		return rel, verdictUnresolved
	}
	if worseBy > d.bound {
		return rel, verdictWorse
	}
	return rel, verdictOK
}

// compareSets prints, per workload × end-to-end metric, both medians, the
// relative difference with its base, the bound and the verdict. It
// reports false when any metric is worse or any set had a failed check.
func compareSets(out io.Writer, old, new []*resultSet) bool {
	ok := true
	fmt.Fprintf(out, "%-12s %-22s %14s %14s  %-28s %6s  %s\n", "workload", "metric", "old", "new", "difference (base: old)", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			o, n := metricValues(old, w.name, d.name), metricValues(new, w.name, d.name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			rel, verdict := judge(d, o, n)
			if verdict == verdictWorse {
				ok = false
			}
			fmt.Fprintf(out, "%-12s %-22s %14.4f %14.4f  %-28s %5.0f%%  %s\n", w.name, d.name, median(o), median(n),
				fmt.Sprintf("%+.2f%% of %.4f %s", rel*100, median(o), d.unit), d.bound*100, verdict)
		}
	}
	for _, side := range [][]*resultSet{old, new} {
		for _, s := range side {
			for _, w := range s.Workloads {
				if !w.Correct {
					fmt.Fprintf(out, "%s: %d of %d operations failed\n", w.Name, w.Failed, w.Attempted)
					ok = false
				}
				if !w.Valid {
					fmt.Fprintf(out, "%s: run marked invalid (the load generator was the limit)\n", w.Name)
				}
			}
		}
	}
	return ok
}

func compareFiles(stdout, stderr io.Writer, oldPath, newPath string) int {
	old, err := readResultFile(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	new, err := readResultFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "old: %s (%d sets)   new: %s (%d sets)\n", oldPath, len(old.Sets), newPath, len(new.Sets))
	if !compareSets(stdout, old.Sets, new.Sets) {
		return 1
	}
	return 0
}

package main

import (
	"fmt"
	"io"
)

// verdict of one (workload, end-to-end metric) pair when comparing a
// new result file with an old one.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // the spread is wider than the bound
)

// judge compares two summaries of a lower-is-better metric with the
// given bound. The medians differ by more than the bound: better or
// worse. Within the bound: same — unless the repetition-to-repetition
// spread (quartile distance over median) of either side is itself wider
// than the bound, in which case the medians cannot be told apart and
// the pair is unresolved, except when every new reading beats every old
// one.
func judge(old, new stat, bound float64) verdict {
	if old.Median == 0 {
		if new.Median == 0 {
			return same
		}
		return unresolved
	}
	spread := func(s stat) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Median
	}
	if spread(old) > bound || spread(new) > bound {
		if new.Max < old.Min {
			return better
		}
		return unresolved
	}
	switch change := (new.Median - old.Median) / old.Median; {
	case change > bound:
		return worse
	case change < -bound:
		return better
	}
	return same
}

// compareFiles prints one verdict per (workload, end-to-end metric) and
// returns the exit status: 0 nothing got worse, 1 something did (or an
// output check failed on the new side), 2 a file could not be used.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var oldDoc, newDoc document
	for _, f := range []struct {
		path string
		doc  *document
	}{{oldPath, &oldDoc}, {newPath, &newDoc}} {
		if err := readJSON(f.path, f.doc); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if f.doc.Schema != schema {
			fmt.Fprintf(stderr, "bench: %s: schema %q, want %q\n", f.path, f.doc.Schema, schema)
			return 2
		}
	}
	olds := map[string]*result{}
	for _, r := range oldDoc.Workloads {
		olds[r.Workload] = r
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %8s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, nr := range newDoc.Workloads {
		or, ok := olds[nr.Workload]
		if !ok {
			fmt.Fprintf(stdout, "%-14s (not in %s)\n", nr.Workload, oldPath)
			continue
		}
		if !nr.Correct || nr.Failed > or.Failed {
			fmt.Fprintf(stdout, "%-14s output check: failed %d (was %d), correct %v  worse\n",
				nr.Workload, nr.Failed, or.Failed, nr.Correct)
			status = 1
		}
		if or.Seed == nr.Seed && or.Scale == nr.Scale && (or.Digest != nr.Digest || or.Sim != nr.Sim) {
			fmt.Fprintf(stdout, "%-14s simulated output changed: digest %.12s -> %.12s, sim %+v -> %+v  worse\n",
				nr.Workload, or.Digest, nr.Digest, or.Sim, nr.Sim)
			status = 1
		}
		for _, m := range endToEnd {
			o, n := or.EndToEnd[m.Name], nr.EndToEnd[m.Name]
			v := judge(o, n, m.Bound)
			if v == worse {
				status = 1
			}
			change := 0.0
			if o.Median != 0 {
				change = (n.Median - o.Median) / o.Median
			}
			fmt.Fprintf(stdout, "%-14s %-20s %14.4f %14.4f %+7.1f%%  %s\n",
				nr.Workload, m.Name, o.Median, n.Median, 100*change, v)
		}
	}
	return status
}

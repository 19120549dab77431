package main

import (
	"errors"
	"fmt"
	"math"
)

// manifest is the part of BENCHMARK.json the program reads: the regression
// bound of each end-to-end metric. Names, units and directions live in
// defs.go; the tests hold the two together.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// verdict judges metric values a (base) and b against a bound. worsening is
// how far b is worse than a as a share of a; spread is the wider of the two
// sides' own window spreads. A metric whose own spread exceeds the bound
// cannot resolve a difference of the bound's size: it is unresolved, unless
// b is worse by more than both.
func verdict(better string, a, b, spread, bound float64) (worsening float64, v string) {
	if a != 0 {
		worsening = (b - a) / math.Abs(a)
		if better == "higher" {
			worsening = -worsening
		}
	}
	switch {
	case worsening > bound && worsening > spread:
		return worsening, "worse"
	case spread > bound:
		return worsening, "unresolved"
	}
	return worsening, "ok"
}

// compareMain prints one row per workload and end-to-end metric of two set
// files, and fails if any row is worse.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench -compare a.json b.json")
	}
	var man manifest
	if err := readJSON("BENCHMARK.json", &man); err != nil {
		return err
	}
	var a, b []*result
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	other := map[string]*result{}
	for _, r := range b {
		other[r.Workload] = r
	}
	fmt.Printf("\ncompare: base a = %s, b = %s\n", args[0], args[1])
	fmt.Printf("%-20s %-18s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a median", "b median", "b/a", "bound", "spread", "verdict")
	worse := 0
	for _, ra := range a {
		rb := other[ra.Workload]
		if rb == nil {
			return fmt.Errorf("%s has no workload %s", args[1], ra.Workload)
		}
		for _, d := range man.EndToEnd {
			sa, sb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			spread := math.Max(sa.spread(), sb.spread())
			_, v := verdict(d.Better, sa.Median, sb.Median, spread, d.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-20s %-18s %14.4f %14.4f %9.4f %6.1f%% %7.1f%%  %s\n", ra.Workload, d.Name,
				sa.Median, sb.Median, ratio(sb.Median, sa.Median), 100*d.Bound, 100*spread, v)
		}
		if !ra.Correct || !rb.Correct {
			worse++
			fmt.Printf("%-20s failed correctness: a %d, b %d failed operations\n", ra.Workload, ra.Failed, rb.Failed)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse than their bound", worse)
	}
	return nil
}

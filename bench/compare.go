package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
)

// setFile is a set of all-workloads runs of one commit, each usually at
// its own seed. -out appends to it; -compare reads two of them.
type setFile struct {
	Runs []*runRecord `json:"runs"`
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set setFile
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &set, nil
}

// appendRun adds rec to the set at path, creating the file when there
// is none.
func appendRun(path string, rec *runRecord) error {
	set, err := readSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		set, err = &setFile{}, nil
	}
	if err != nil {
		return err
	}
	set.Runs = append(set.Runs, rec)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload over a set's
// runs.
func (s *setFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		for _, w := range r.Workloads {
			if v, ok := w.EndToEnd[metric]; ok && w.Name == workload {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. Fewer than two values have
// no spread.
func quartileSpread(vals []float64) float64 {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	ld := len(d)
	med := median(d)
	if ld < 2 || med == 0 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4 // taken after the clamp, as Python does
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return math.Abs((q(3) - q(1)) / med)
}

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares set B's median with set A's. worsening is the change
// in the bad direction as a share of A's median.
func judge(def metricDef, a, b []float64) (medA, medB, worsening, spread float64, verdict string) {
	medA, medB = median(a), median(b)
	spread = math.Max(quartileSpread(a), quartileSpread(b))
	if medA != 0 {
		worsening = (medB - medA) / math.Abs(medA)
		if def.Better == "higher" {
			worsening = -worsening
		}
	}
	switch {
	case spread > def.Bound:
		verdict = verdictUnresolved
	case worsening > def.Bound:
		verdict = verdictWorse
	case worsening < -def.Bound:
		verdict = verdictImproved
	default:
		verdict = verdictUnchanged
	}
	return
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether any row is worse. A workload with failed operations
// on either side is worse whatever its numbers say.
func compareFiles(pathA, pathB string, out io.Writer) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A: %s, %d runs, commit %s\nB: %s, %d runs, commit %s\n",
		pathA, len(a.Runs), a.Runs[0].Host.Commit, pathB, len(b.Runs), b.Runs[0].Host.Commit)
	fmt.Fprintf(out, "%-18s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worsening", "spread", "bound", "verdict")
	worse := false
	counts := map[string]int{}
	for _, name := range workloadNames {
		for _, def := range endToEnd {
			va, vb := a.values(name, def.Name), b.values(name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing from one of the sets", name, def.Name)
			}
			medA, medB, worsening, spread, verdict := judge(def, va, vb)
			counts[verdict]++
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(out, "%-18s %-22s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				name, def.Name, medA, medB, 100*worsening, 100*spread, 100*def.Bound, verdict)
		}
		for _, set := range []*setFile{a, b} {
			for _, r := range set.Runs {
				for _, w := range r.Workloads {
					if w.Name == name && w.Failed > 0 {
						fmt.Fprintf(out, "%-18s %-22s %d of %d operations failed at seed %d: worse\n", name, "failed_share", w.Failed, w.Attempted, r.Seed)
						worse = true
					}
				}
			}
		}
	}
	fmt.Fprintf(out, "%d improved, %d unchanged, %d worse, %d unresolved\n",
		counts[verdictImproved], counts[verdictUnchanged], counts[verdictWorse], counts[verdictUnresolved])
	return worse, nil
}

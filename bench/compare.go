package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json: the contract this program is
// measured by. The program emits names and units; directions and bounds
// are read from here so there is one place to change them.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads the untraced records of an -out file, by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// side is one file's view of one workload × metric: the median across
// its records, and the widest spread any record saw between its passes.
type side struct {
	value, spread float64
}

func sideOf(recs []record, metric string) side {
	var vals []float64
	var s side
	for _, r := range recs {
		m := r.Metrics[metric]
		vals = append(vals, m.Median)
		s.spread = max(s.spread, m.spread())
	}
	sum := summarize(vals)
	s.value = sum.Median
	// Several records (several seeds or repeats): their own spread counts
	// too.
	s.spread = max(s.spread, sum.spread())
	return s
}

// compareFiles prints, per workload × end-to-end metric, both values,
// b/a with a as the base, the bound, and a verdict: regressed when b is
// worse than a by more than the bound, unresolved when the spread on
// either side is wider than the bound (the comparison cannot tell a
// change that size from noise), else ok. It reports whether b is
// acceptable: nothing regressed and no larger share of operations
// failed.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tspread\tverdict\t")
	ok := true
	var names []string
	for _, wl := range bf.Workloads {
		if len(a[wl.Name]) > 0 && len(b[wl.Name]) > 0 {
			names = append(names, wl.Name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", aPath, bPath)
	}
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			sa, sb := sideOf(a[name], m.Name), sideOf(b[name], m.Name)
			if sa.value == 0 {
				return false, fmt.Errorf("%s: %s/%s has no value", aPath, name, m.Name)
			}
			ratio := sb.value / sa.value
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			spread := max(sa.spread, sb.spread)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, ok = "regressed", false
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.3f\t%.4f\t%s\t\n",
				name, m.Name, sa.value, sb.value, ratio, m.Bound, spread, verdict)
		}
		fa, fb := failShare(a[name]), failShare(b[name])
		verdict := "ok"
		if fb > fa {
			verdict, ok = "regressed", false
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\t%.3g\t%.3g\t\t\t\t%s\t\n", name, fa, fb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	return ok, nil
}

// failShare is failed over attempted across a workload's records.
func failShare(recs []record) float64 {
	var f, n int64
	for _, r := range recs {
		f += r.Failed
		n += r.Attempted
	}
	if n == 0 {
		return 0
	}
	return float64(f) / float64(n)
}

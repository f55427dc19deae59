package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkDoc is the part of BENCHMARK.json compare reads.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setupFloorS is the absolute slack on setup_s: a set-up that is
// milliseconds long may move by more than its relative bound without
// anyone paying for it.
const setupFloorS = 0.05

// findBenchmarkJSON looks for BENCHMARK.json in the working directory
// and its parent (the benchmark's own directory sits one level down).
func findBenchmarkJSON() string {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "BENCHMARK.json"
}

func loadRuns(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d runDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d.Runs, nil
}

// side is one set's untraced runs of one workload.
type side struct {
	runs    []*result
	failed  int
	digests map[int64]string // by seed
}

func groupRuns(runs []*result) map[string]*side {
	out := make(map[string]*side)
	for _, r := range runs {
		if r.Trace {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{digests: make(map[int64]string)}
			out[r.Workload] = s
		}
		s.runs = append(s.runs, r)
		s.failed += r.Failed
		s.digests[r.Seed] = r.Digest
	}
	return out
}

func (s *side) values(metric string) []float64 {
	var v []float64
	for _, r := range s.runs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the first and third quartiles of the
// runs' values as a share of their median — the driver's steadiness
// measure.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// compareMain applies BENCHMARK.json's bounds to two sets of runs of
// the same benchmark and prints one verdict row per metric × workload.
// It exits 0 when every metric holds, no operation failed and every
// sim_digest agrees.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("benchmark", findBenchmarkJSON(), "BENCHMARK.json holding the bounds")
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] a.json b.json")
		return 2
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var bm benchmarkDoc
	if err := json.Unmarshal(data, &bm); err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", *benchPath, err)
		return 2
	}
	var sets [2]map[string]*side
	for i := range sets {
		runs, err := loadRuns(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		sets[i] = groupRuns(runs)
	}

	bad := 0
	fmt.Printf("%-19s %-16s %-11s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A iqr", "B median", "B iqr", "B vs A", "bound", "verdict")
	for _, wl := range bm.Workloads {
		a, b := sets[0][wl.Name], sets[1][wl.Name]
		if a == nil || b == nil {
			fmt.Printf("%-19s missing from one of the sets\n", wl.Name)
			bad++
			continue
		}
		for _, m := range bm.EndToEnd {
			va, vb := a.values(m.Name), b.values(m.Name)
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma) // lower is better
			if m.Better == "higher" {
				worse = ratio(ma-mb, ma)
			}
			verdict, holds := "ok", true
			switch {
			case len(va) == 0 || len(vb) == 0:
				verdict, holds = "MISSING", false
			case worse <= m.Bound:
			case m.Name == "setup_s" && mb-ma <= setupFloorS:
				verdict = "ok (within 0.05 s)"
			default:
				verdict, holds = "WORSE", false
			}
			if m.Name != "setup_s" && (spread(va) > m.Bound || spread(vb) > m.Bound) {
				verdict, holds = verdict+" UNSTEADY", false
			}
			if !holds {
				bad++
			}
			fmt.Printf("%-19s %-16s %-11s %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, ma, spread(va)*100, mb, spread(vb)*100, -worse*100, m.Bound*100, verdict)
		}
		fmt.Printf("%-19s %-16s failed ops: A %d, B %d", wl.Name, "failed_share", a.failed, b.failed)
		if a.failed+b.failed > 0 {
			fmt.Print("  FAILED")
			bad++
		}
		fmt.Println()
		seeds := make([]int64, 0, len(a.digests))
		for s := range a.digests {
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		same, differ := 0, 0
		for _, s := range seeds {
			if d, ok := b.digests[s]; ok {
				if d == a.digests[s] {
					same++
				} else {
					differ++
				}
			}
		}
		fmt.Printf("%-19s %-16s %d of %d seeds in both sets agree", wl.Name, "sim_digest", same, same+differ)
		if differ > 0 {
			fmt.Print("  DIFFER")
			bad++
		}
		fmt.Println()
	}
	if bad > 0 {
		fmt.Printf("%d rows outside the benchmark's bounds\n", bad)
		return 1
	}
	fmt.Println("every metric within its bound, no failed operation, every shared sim_digest identical")
	return 0
}

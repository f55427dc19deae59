// Command bench is the repository's benchmark: four workloads over the
// simulator and the serve daemon, driven only through the public
// functions of the layers, reporting end-to-end metrics with tracing
// off and a per-layer ledger in a separate traced run. See README.md.
//
//	bash bench/run.sh                                   every workload, end to end
//	bash bench/run.sh -trace 1                          ... plus the traced run of each
//	bash bench/run.sh -runs 10 -json set.json           ten seeds of each, for compare
//	bash bench/run.sh -workload serve_mix -seed 11 -seconds 20 -trace 0
//	bash bench/run.sh compare a.json b.json
//
// With -workload the last line of standard output is the one-object
// JSON result the benchmark driver reads.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

const defaultSeed = 7

//go:embed golden.json
var goldenJSON []byte

// golden maps a workload to the sim_digest it produced at the default
// seed when the benchmark was defined. A mismatch is a flag for the
// reviewer (behaviour changed), never a failed operation.
func golden(toy bool) map[string]string {
	var doc map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &doc); err != nil {
		return nil
	}
	if toy {
		return doc["toy"]
	}
	return doc["full"]
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", defaultSeed, "every input — pairs, arrivals, job sequence — derives from it")
	seconds := flag.Float64("seconds", 20, "measuring time of one run")
	traced := flag.Int("trace", 0, "1: the traced run (per-layer metrics, bench/out/<workload>.trace.json); 0: end-to-end metrics, tracing off")
	jsonOut := flag.String("json", "", "also write the full result document(s) to this file (the input of `compare`)")
	outDir := flag.String("out", defaultOutDir(), "directory for trace files")
	runs := flag.Int("runs", 1, "without -workload: run every workload this many times, on seeds seed, seed+1, ...")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	opts := runOptions{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced != 0,
		outDir:  *outDir,
	}
	if *workload == "" {
		os.Exit(suite(opts, *runs, *jsonOut))
	}
	// No workload uses more than two worker goroutines or connections;
	// pinning keeps the runtime from sizing itself to the host.
	runtime.GOMAXPROCS(2)
	res, err := runWorkload(*workload, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res.print(os.Stdout)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, []*result{res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	fmt.Println(res.contractLine())
	if !res.Correct {
		os.Exit(1)
	}
}

// defaultOutDir is bench/out from the repository root, out from inside
// the benchmark's own directory.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func runWorkload(name string, opts runOptions) (*result, error) {
	var res *result
	switch {
	case simWorkloads[name] != nil:
		res = runSim(simWorkloads[name], opts)
	case name == "serve_mix":
		res = runServe(opts)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	res.seal(golden(opts.toy), opts.seed == defaultSeed)
	return res, nil
}

// runDoc is the -json document: one result per workload run.
type runDoc struct {
	Runs []*result `json:"runs"`
}

func writeJSON(path string, runs []*result) error {
	data, err := json.MarshalIndent(runDoc{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// suite runs every workload, each in a child process of its own so
// that peak RSS and garbage-collector state are per workload. With
// tracing on, each workload runs twice: end-to-end numbers come from
// the untraced run only.
func suite(opts runOptions, runs int, jsonOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(opts.outDir, "suite-")
	if err != nil {
		if err = os.MkdirAll(opts.outDir, 0o755); err == nil {
			tmp, err = os.MkdirTemp(opts.outDir, "suite-")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	defer os.RemoveAll(tmp)

	modes := []int{0}
	if opts.trace {
		modes = append(modes, 1)
	}
	var all []*result
	code := 0
	for i := 0; i < runs*len(workloads)*len(modes); i++ {
		// Workloads interleave within a pass over the seeds, so slow
		// drift of the host spreads over all of them.
		wl, mode := workloads[i/len(modes)%len(workloads)], modes[i%len(modes)]
		seed := opts.seed + int64(i/len(modes)/len(workloads))
		doc := filepath.Join(tmp, fmt.Sprintf("%s.%d.%d.json", wl.name, seed, mode))
		args := []string{
			"-workload", wl.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(opts.seconds.Seconds()), "-trace", fmt.Sprint(mode),
			"-json", doc, "-out", opts.outDir,
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		// The child's last line is the driver's JSON; the report is the rest.
		if i := bytes.LastIndexByte(bytes.TrimRight(out, "\n"), '\n'); i >= 0 {
			os.Stdout.Write(out[:i+1])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s (seed %d, trace %d): %v\n", wl.name, seed, mode, err)
			code = 1
		}
		if data, err := os.ReadFile(doc); err == nil {
			var d runDoc
			if json.Unmarshal(data, &d) == nil {
				all = append(all, d.Runs...)
			}
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return code
}

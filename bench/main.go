// Command bench is the deployed-path benchmark: it builds ./cmd/kfserver,
// runs it as a separate process on an ephemeral loopback port, drives it
// over two wire.Client connections with inputs generated from -seed,
// checks every answer, and prints every metric by name with its unit.
// See README.md in this directory for the workloads and the metric tables.
//
// The bench is a module of its own (bench/go.mod, replacing kalmanstream
// with the parent directory), so the repository's own build and tests
// never see it. From the repository root:
//
//	go -C bench run .                          all four workloads, end-to-end metrics
//	go -C bench run . -trace 1                 the traced run: spans + per-layer probes
//	go -C bench run . -workload paced_bare     one workload; last stdout line is the result JSON
//	go -C bench run . -smoke                   200 streams × 200 ticks, a few seconds
//	go -C bench run . -repeat 2                two sets back to back, compared pairwise
//	go -C bench run . -compare old.json new.json
//	bash bench/run.sh --workload … --seed … --seconds … --trace …   the benchmark driver's entry
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == heaterArg {
		heat()
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and end with the driver's one-line JSON result (default: all four)")
	seed := fs.Int64("seed", 1, "seeds the stream generators and the query schedule")
	seconds := fs.Float64("seconds", 20, "length of each workload's timed phase")
	traceFlag := fs.Int("trace", 0, "1 = the traced run: spans recorded through the second half of each timed phase, then the in-process layer probes; prints per-layer metrics")
	out := fs.String("out", "bench/out/result.json", "result file, relative to the repository root")
	smoke := fs.Bool("smoke", false, "tiny scale (200 streams, 200 ticks, 1 s phases): exercises every path in seconds; numbers are not comparable")
	repeat := fs.Int("repeat", 1, "run this many sets back to back and compare consecutive sets")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	corrupt := fs.Bool("selftest-corrupt", false, "falsify one expected measurement in the checker's own table; the run must count it and exit non-zero")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || *repeat < 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []*workloadDef{w}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	r := &runner{sc: fullScale, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, corrupt: *corrupt, out: stdout}
	if *smoke {
		r.sc, r.seconds = smokeScale, 1
	}
	// The generator gets one thread per connection and no more; the server
	// keeps Go's default.
	runtime.GOMAXPROCS(r.sc.conns)

	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	r.root = root
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail(err)
	}
	if r.work, err = os.MkdirTemp(build, "run-*"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(r.work)
	r.outDir = filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return fail(err)
	}
	installSignalCleanup()
	defer killAllChildren()
	if err := startHeaters(); err != nil {
		return fail(err)
	}

	file := &resultFile{}
	ok := true
	for rep := 0; rep < *repeat; rep++ {
		set := &resultSet{Env: newEnvInfo(), Seed: *seed, Seconds: r.seconds, Traced: r.traced, Smoke: *smoke}
		set.Env.CalibNs[0] = calibrate()
		var probes map[string]metric
		if r.traced {
			fmt.Fprintln(stdout, "running the in-process layer probes")
			if probes, err = runProbes(r); err != nil {
				return fail(fmt.Errorf("layer probes: %w", err))
			}
		}
		for _, w := range selected {
			res, err := r.runWorkload(w)
			if err != nil {
				return fail(err)
			}
			if r.traced {
				mergeProbes(res, probes)
			}
			printWorkload(stdout, res, r.traced)
			set.Workloads = append(set.Workloads, res)
			ok = ok && res.Correct
		}
		set.Env.CalibNs[1] = calibrate()
		fmt.Fprintf(stdout, "env: nproc %d, %s, kernel %s, revision %s, calib_ns %d → %d\n", set.Env.NProc,
			set.Env.GoVersion, set.Env.Kernel, set.Env.Revision, set.Env.CalibNs[0], set.Env.CalibNs[1])
		file.Sets = append(file.Sets, set)
	}
	if r.traced {
		if err := writeLayers(filepath.Join(r.outDir, "layers.json"), file); err != nil {
			return fail(err)
		}
	}
	outPath := *out
	if !filepath.IsAbs(outPath) {
		outPath = filepath.Join(root, outPath)
	}
	if err := writeResultFile(outPath, file); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	agree := true
	for i := 1; i < len(file.Sets); i++ {
		fmt.Fprintf(stdout, "set %d against set %d:\n", i+1, i)
		if !compareSets(stdout, file.Sets[i-1:i], file.Sets[i:i+1]) {
			agree = false
		}
	}

	if *workload != "" {
		// Driver mode: the last line is the result object and nothing else.
		line, err := contractLine(file.Sets[len(file.Sets)-1].Workloads[0], r.traced)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, line)
	} else {
		summary := struct {
			Correct   bool    `json:"correct"`
			Workloads int     `json:"workloads"`
			Sets      int     `json:"sets"`
			Result    string  `json:"result"`
			Claim     *string `json:"claim"`
		}{ok, len(selected), len(file.Sets), outPath, nil}
		b, _ := json.Marshal(summary) // plain fields: cannot fail
		fmt.Fprintln(stdout, string(b))
	}
	if !ok || !agree {
		return 1
	}
	return 0
}

// repoRoot finds the repository root — the directory ./cmd/kfserver
// builds from — from the working directory upwards: the working directory
// itself under run.sh, its parent under `go -C bench run .` or a test.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "kfserver", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/kfserver at or above the working directory: run from the repository")
		}
		dir = parent
	}
}

// writeLayers writes the traced run's per-layer metrics, one object per
// workload, to layers.json.
func writeLayers(path string, file *resultFile) error {
	layers := make(map[string]map[string]metric)
	for _, w := range file.Sets[len(file.Sets)-1].Workloads {
		layers[w.Name] = w.Metrics
	}
	b, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// needRealServer skips where the bench cannot run: it reads /proc and
// builds kfserver with the go tool.
func needRealServer(t *testing.T) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("the bench reads /proc/<pid>/stat: linux only")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build kfserver with")
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// The names in BENCHMARK.json and the names the code emits are the same
// names, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, bj.Workloads[i].Name, w.name)
		}
		if len(bj.Workloads[i].Why) == 0 || len(bj.Workloads[i].Why) > 200 || strings.Contains(bj.Workloads[i].Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the code declares %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d emitted", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the code declares %+v", i, got, d)
		}
	}
}

// checkEmitted asserts a workload result carries exactly the declared
// metrics, each with its declared unit.
func checkEmitted(t *testing.T, w *workloadResult, decls []metricDecl) {
	t.Helper()
	if len(w.Metrics) != len(decls) {
		t.Errorf("%s: %d metrics emitted, %d declared", w.Name, len(w.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := w.Metrics[d.name]
		if !ok {
			t.Errorf("%s: %s not emitted", w.Name, d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", w.Name, d.name, m.Unit, d.unit)
		}
	}
}

// All four workloads against a real kfserver at smoke scale: every
// declared end-to-end metric comes out once per workload with its unit,
// every answer checks out, and the human-readable report names each
// workload's reason.
func TestSmokeAllWorkloads(t *testing.T) {
	needRealServer(t)
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -smoke exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	file, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if file.Claim != nil {
		t.Errorf("claim = %q, want null", *file.Claim)
	}
	got := file.Sets[0].Workloads
	if len(got) != len(workloads) {
		t.Fatalf("%d workloads ran, want %d", len(got), len(workloads))
	}
	for i, w := range got {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloads[i].name)
		}
		checkEmitted(t, w, endToEnd)
		if w.Failed != 0 || !w.Correct || w.Extras["failed_frac"].Value != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Notes)
		}
		if w.Attempted < 1000 {
			t.Errorf("%s: only %d operations attempted", w.Name, w.Attempted)
		}
		if !strings.Contains(stdout.String(), "why: "+workloads[i].why) {
			t.Errorf("%s: the report does not print why the workload exists", w.Name)
		}
		// What only the deployed flag set has must be absent, not zero,
		// on a bare server.
		_, hasWAL := w.Extras["wal.recovery_s"]
		_, hasScrape := w.Extras["scrape_p50_ms"]
		if full := workloads[i].full; hasWAL != full || hasScrape != full {
			t.Errorf("%s: wal.recovery_s present=%v scrape_p50_ms present=%v, want both %v", w.Name, hasWAL, hasScrape, full)
		}
	}
	for _, d := range endToEnd {
		if n := strings.Count(stdout.String(), "\n  "+d.name+" "); n != len(workloads) {
			t.Errorf("%s printed %d times, want once per workload", d.name, n)
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasSuffix(last, `"claim":null}`) {
		t.Errorf("summary does not end with \"claim\": null: %s", last)
	}
}

// The driver's contract on one workload, traced: the last line of
// standard output is one JSON object holding exactly the per-layer
// metrics, and the span file is written.
func TestSmokeTracedContractLine(t *testing.T) {
	needRealServer(t)
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-workload", "paced_bare", "-seed", "3", "-trace", "1", "-out", filepath.Join(t.TempDir(), "r.json")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   *bool             `json:"correct"`
		Attempted *int64            `json:"attempted"`
		Failed    *int64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
		t.Errorf("result object: %s", lines[len(lines)-1])
	}
	checkEmitted(t, &workloadResult{Name: "paced_bare", Metrics: res.Metrics}, perLayer)
	if res.Metrics["loadgen.spans"].Value < 100 {
		t.Errorf("only %v spans recorded", res.Metrics["loadgen.spans"].Value)
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spans, err := os.ReadFile(filepath.Join(root, "bench", "out", "spans_paced_bare.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"name":"register"`, `"name":"tick"`, `"name":"send"`, `"name":"flush"`, `"name":"query"`} {
		if !bytes.Contains(spans, []byte(name)) {
			t.Errorf("span file has no %s span", name)
		}
	}
}

// A wrong answer must be counted and must turn the exit code non-zero.
// The server is fed honest inputs; one expected measurement in the
// checker's own table is falsified, so its answer looks wrong.
func TestSmokeCorruptedExpectationFails(t *testing.T) {
	needRealServer(t)
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-workload", "query_flood", "-selftest-corrupt", "-out", out}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("a falsified expectation went unnoticed:\n%s", stdout.String())
	}
	file, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	w := file.Sets[0].Workloads[0]
	if w.Failed != 1 || w.Correct || w.Extras["failed_frac"].Value <= 0 {
		t.Errorf("failed = %d, correct = %v, failed_frac = %v; want exactly the one falsified answer counted",
			w.Failed, w.Correct, w.Extras["failed_frac"].Value)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"correct":false`) || !strings.Contains(last, `"failed":1`) {
		t.Errorf("result object does not report the failure: %s", last)
	}
}

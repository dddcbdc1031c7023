package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDecl{"query_p99_ms", "ms", "lower", 0.10}
	higher := metricDecl{"ops_per_s", "1/s", "higher", 0.10}
	for _, c := range []struct {
		name     string
		d        metricDecl
		old, new []float64
		want     string
	}{
		{"within bound", lower, []float64{10}, []float64{10.9}, verdictOK},
		{"lower-is-better got higher", lower, []float64{10}, []float64{11.5}, verdictWorse},
		{"lower-is-better got lower", lower, []float64{10}, []float64{5}, verdictOK},
		{"higher-is-better dropped", higher, []float64{100}, []float64{85}, verdictWorse},
		{"higher-is-better rose", higher, []float64{100}, []float64{150}, verdictOK},
		{"old side too noisy to tell", lower, []float64{8, 10, 12}, []float64{11.5}, verdictUnresolved},
		{"noisy but every new run beats every old", lower, []float64{8, 10, 12}, []float64{5, 6, 7}, verdictOK},
		{"medians of several runs", lower, []float64{10, 10.1, 9.9, 10}, []float64{12, 12.1, 11.9, 12}, verdictWorse},
	} {
		if _, got := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("one run: spread %v, want 0 (unknown)", got)
	}
	if got := spread([]float64{9, 11}); got != 0.2 {
		t.Errorf("two runs: spread %v, want range/median = 0.2", got)
	}
	// Eight runs: nearest-rank quartiles 2 and 6 around a median of 4.5.
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 100}), 4/4.5; got != want {
		t.Errorf("eight runs: spread %v, want %v (the outlier must not count)", got, want)
	}
}

func set(workload string, values map[string]float64, failed int64) *resultSet {
	w := &workloadResult{Name: workload, Valid: true, Correct: failed == 0, Attempted: 100, Failed: failed,
		Metrics: make(map[string]metric)}
	for n, v := range values {
		w.Metrics[n] = metric{Value: v}
	}
	return &resultSet{Workloads: []*workloadResult{w}}
}

func TestCompareSets(t *testing.T) {
	base := map[string]float64{"ops_per_s": 1000, "query_p99_ms": 5}
	var out bytes.Buffer
	if !compareSets(&out, []*resultSet{set("flood_bare", base, 0)}, []*resultSet{set("flood_bare", base, 0)}) {
		t.Errorf("identical sets compared unequal:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "+0.00% of 1000.0000 1/s") {
		t.Errorf("difference is not printed with its base:\n%s", out.String())
	}
	out.Reset()
	slower := map[string]float64{"ops_per_s": 700, "query_p99_ms": 5}
	if compareSets(&out, []*resultSet{set("flood_bare", base, 0)}, []*resultSet{set("flood_bare", slower, 0)}) {
		t.Errorf("a 30%% throughput drop passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no 'worse' verdict printed:\n%s", out.String())
	}
	out.Reset()
	if compareSets(&out, []*resultSet{set("flood_bare", base, 0)}, []*resultSet{set("flood_bare", base, 3)}) {
		t.Errorf("a set with failed operations passed:\n%s", out.String())
	}
}

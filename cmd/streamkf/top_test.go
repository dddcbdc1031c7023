package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kalmanstream/internal/diag"
	"kalmanstream/internal/health"
)

func TestSpark(t *testing.T) {
	if got := spark(nil); got != "" {
		t.Errorf("spark(nil) = %q, want empty", got)
	}
	if got := spark([]float64{0, 0, 0}); got != "▁▁▁" {
		t.Errorf("flat spark = %q, want baseline runes", got)
	}
	got := spark([]float64{0, 0.5, 1})
	runes := []rune(got)
	if len(runes) != 3 || runes[0] != '▁' || runes[2] != '█' {
		t.Errorf("ramp spark = %q, want ▁..█", got)
	}
}

func TestRenderTop(t *testing.T) {
	cur := &health.DebugPayload{
		Snapshot: health.Snapshot{
			Tick:         1200,
			ActiveAlerts: 1,
			Severity:     "page",
			SLOs: []health.SLOSnapshot{
				{Name: "staleness", Kind: "gauge", Severity: "page", BurnFast: 1e9, BurnSlow: 1e9, Windows: []float64{0, 1}},
				{Name: "delta-burn", Kind: "ratio", Severity: "ok", Budget: 0.02, BurnFast: 0.5, BurnSlow: 0.2, Windows: []float64{0.01, 0}},
			},
			Transitions: []health.Transition{
				{SLO: "staleness", FromName: "ok", ToName: "page", Tick: 1100, BurnFast: 1e9, BurnSlow: 1e9},
			},
		},
		Streams: []health.StreamStat{
			{ID: "s1", Sent: 300, Suppressed: 700, Delta: 0.5, Stale: true},
		},
	}
	prev := &health.DebugPayload{Streams: []health.StreamStat{
		{ID: "s1", Sent: 100, Suppressed: 500, Delta: 0.5},
	}}

	out := renderTop(prev, cur, 2.0)
	for _, want := range []string{
		"severity PAGE", "1 active alert",
		"staleness", "inf", // +Inf sentinel rendered readably
		"delta-burn", "0.50",
		"s1", "100.0", // (300-100)/2s sent rate
		"STALE",
		"ok -> page",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}

	// First frame: no baseline, rates render as "-".
	first := renderTop(nil, cur, 0)
	if !strings.Contains(first, "-") {
		t.Errorf("first frame should show placeholder rates:\n%s", first)
	}
}

// TestTopEndToEnd polls a fake /debug/health twice and checks the
// command exits cleanly after -n frames.
func TestTopEndToEnd(t *testing.T) {
	payload := `{"tick": 5, "windows_closed": 1, "window_ticks": 1, "active_alerts": 0,
		"severity": "ok",
		"series": [], "slos": [{"name":"delta-burn","kind":"ratio","severity":"ok","budget":0.02,"burn_fast":0,"burn_slow":0}],
		"streams": [{"id":"s1","sent":10,"suppressed":90,"delta":0.5}]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/health" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(payload))
	}))
	defer ts.Close()

	addr := strings.TrimPrefix(ts.URL, "http://")
	if err := cmdTop([]string{"-http", addr, "-interval", "10ms", "-n", "2"}); err != nil {
		t.Fatalf("top against fake server: %v", err)
	}

	if err := cmdTop([]string{"-http", "127.0.0.1:1", "-interval", "10ms", "-n", "1"}); err == nil {
		t.Error("top against a dead address should fail")
	}
}

// TestRenderOffenders pins the offenders pane: every table a server serves
// is exact, so the pane says so once, in its header, beside k; a row that
// did come from a sketch still shows its bound.
func TestRenderOffenders(t *testing.T) {
	tables := map[string][]diag.Item{
		diag.SketchCorrections: {{ID: "whale", Count: 60}, {ID: "s00000", Count: 3}},
		diag.SketchBytes:       {{ID: "whale", Count: 1620}, {ID: "s00000", Count: 81}},
		diag.SketchViolations:  {{ID: "s00007", Count: 9}, {ID: "s00003", Count: 1}},
		diag.SketchStale:       nil,
	}
	got := renderOffenders(&diag.TopPayload{Sketches: tables, K: 128})
	want := `
top offenders (exact, k=128):
  corrections whale=60  s00000=3
  bytes       whale=1620  s00000=81
  violations  s00007=9  s00003=1
`
	if got != want {
		t.Errorf("offenders pane:\n%s\nwant:\n%s", got, want)
	}

	got = renderOffenders(&diag.TopPayload{Sketches: map[string][]diag.Item{}, K: 128})
	want = `
top offenders (exact, k=128):
  (no events attributed yet)
`
	if got != want {
		t.Errorf("empty offenders pane:\n%s\nwant:\n%s", got, want)
	}

	// The same tables inside an incident report, one row from a sketch.
	tables[diag.SketchCorrections][1].Err = 1
	report := renderBundle(&diag.Bundle{ID: "bundle-000001-page-streams-stale", Reason: "page:streams-stale", TopK: tables})
	want = `
top offenders:
  corrections whale=60  s00000=3±1
  bytes       whale=1620  s00000=81
  violations  s00007=9  s00003=1

`
	if !strings.Contains(report, want) {
		t.Errorf("incident report:\n%s\nwant it to contain:\n%s", report, want)
	}
}

package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this tree")

// envelopeRuns are the runs whose alert envelopes are pinned byte for
// byte: every transition tick and burn rate, every bundle and its stale
// offenders. The goldens were recorded before the monitor moved onto the
// telemetry history's tiers, so they hold the merged engine to the
// arithmetic of the one it replaced.
var envelopeRuns = []struct {
	name string
	cfg  func(t *testing.T) Config
}{
	{"smoke", func(*testing.T) Config {
		// `make chaos-smoke`: streamkf chaos's built-in schedule.
		return Config{Ticks: 4500, Schedule: Schedule{
			{Name: "loss-burst", From: 500, Until: 1500, DropProb: 0.05},
			{Name: "partition", From: 2000, Until: 2400, Partition: true},
			{Name: "uplink-blackout", From: 2900, Until: 3300, DropProb: 1},
		}}
	}},
	{"blackout", func(*testing.T) Config {
		return Config{Ticks: 3000, Schedule: Schedule{
			{Name: "uplink-blackout", From: 1000, Until: 1600, DropProb: 1},
		}}
	}},
	{"loss_burst", func(*testing.T) Config {
		return Config{Ticks: 3000, Schedule: Schedule{
			{Name: "loss-burst", From: 500, Until: 1500, DropProb: 0.05},
		}}
	}},
	{"delay_burst", func(*testing.T) Config {
		// Ten ticks of 10-tick delay: freshness-p99 warns and clears.
		return Config{Ticks: 3000, Schedule: Schedule{
			{Name: "delay-burst", From: 1000, Until: 1010, DelayTicks: 10},
		}}
	}},
	{"restart", func(t *testing.T) Config {
		return Config{Ticks: 2000, Streams: 2, CheckpointEveryTicks: 250, WALDir: t.TempDir(),
			Schedule: Schedule{
				{Name: "loss-burst", From: 300, Until: 500, DropProb: 0.7},
				{Name: "kill", From: 900, Until: 901, Restart: true},
			}}
	}},
}

// TestHealthEnvelopesGolden compares each run's HealthSummary and
// BundleSummary against testdata/<name>.golden (regenerate with
// `go test ./internal/chaos -run TestHealthEnvelopesGolden -update`,
// only from a tree whose alert arithmetic is meant to change).
func TestHealthEnvelopesGolden(t *testing.T) {
	for _, r := range envelopeRuns {
		t.Run(r.name, func(t *testing.T) {
			rep, err := Run(r.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			got := rep.HealthSummary() + rep.BundleSummary()
			path := filepath.Join("testdata", r.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s envelope diverged from %s:\n--- got ---\n%s--- want ---\n%s", r.name, path, got, want)
			}
		})
	}
}

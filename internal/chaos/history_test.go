package chaos

import (
	"strings"
	"testing"

	"kalmanstream/internal/health"
)

// The retrospective-observability acceptance check: the partial-blackout
// incident bundle must embed the trailing telemetry history of the
// paging SLO's series and the impaired streams' labeled series, with
// monotone tick-aligned buckets covering at least 60 pre-incident ticks
// — the ramp before the cliff, not just the cliff.
func TestBlackoutBundleEmbedsHistory(t *testing.T) {
	impaired := []string{"chaos-2", "chaos-4"}
	rep, err := Run(Config{
		Ticks:   3000,
		Streams: 4,
		Schedule: Schedule{
			{Name: "partial-blackout", From: 1000, Until: 1600, DropProb: 1, Streams: impaired},
		},
		BundleDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bundles) != 1 {
		t.Fatalf("captured %d bundles, want exactly 1", len(rep.Bundles))
	}
	b := rep.Bundles[0]
	if b.Alert == nil || b.Alert.To != health.SevPage {
		t.Fatalf("bundle alert = %+v, want a page transition", b.Alert)
	}
	if b.History == nil || len(b.History.Series) == 0 {
		t.Fatal("bundle embeds no history excerpt")
	}

	// Every embedded series is tick-aligned and monotone.
	for _, sr := range b.History.Series {
		for i := 1; i < len(sr.Points); i++ {
			if sr.Points[i].EndTick <= sr.Points[i-1].EndTick {
				t.Errorf("series %s%s: EndTicks not monotone at %d: %d then %d",
					sr.Name, sr.Labels, i, sr.Points[i-1].EndTick, sr.Points[i].EndTick)
				break
			}
		}
	}

	// The paging SLO (staleness, tracking streams_stale) contributes its
	// registry series, with >= 60 buckets closed before the page fired.
	var foundSLO bool
	for _, sr := range b.History.Series {
		if sr.Name != "streams_stale" {
			continue
		}
		foundSLO = true
		pre := 0
		for _, p := range sr.Points {
			if p.EndTick < b.Alert.Tick {
				pre++
			}
		}
		if pre < 60 {
			t.Errorf("streams_stale history covers %d pre-incident ticks, want >= 60", pre)
		}
	}
	if !foundSLO {
		var names []string
		for _, sr := range b.History.Series {
			names = append(names, sr.Name+sr.Labels)
		}
		t.Fatalf("paging SLO series streams_stale missing from excerpt: %v", names)
	}

	// The impaired streams' labeled series ride along via the offender
	// sketches.
	for _, id := range impaired {
		found := false
		for _, sr := range b.History.Series {
			if strings.Contains(sr.Labels, `stream="`+id+`"`) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no labeled series for impaired stream %s in excerpt", id)
		}
	}

	// The end-of-run dump rides the report for the -history-out artifact.
	if rep.History == nil || rep.History.SeriesCount == 0 {
		t.Errorf("report carries no history dump: %+v", rep.History)
	}
}

// The history store (and the monitor reading it) must be a pure
// observer: a loss-free run with them armed is byte-identical to the
// unarmed control across all three summaries.
func TestHistoryRunByteIdentical(t *testing.T) {
	cfg := Config{Ticks: 3000, Streams: 2}
	armed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := cfg
	ctrl.DisableHealth = true
	control, err := Run(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if armed.Summary() != control.Summary() {
		t.Errorf("armed history changed the run:\narmed:\n%s\ncontrol:\n%s",
			armed.Summary(), control.Summary())
	}
	if armed.HealthSummary() != control.HealthSummary() {
		t.Errorf("armed history changed health:\narmed:\n%s\ncontrol:\n%s",
			armed.HealthSummary(), control.HealthSummary())
	}
	if armed.BundleSummary() != control.BundleSummary() {
		t.Errorf("armed history changed bundles:\narmed:\n%s\ncontrol:\n%s",
			armed.BundleSummary(), control.BundleSummary())
	}
	if armed.History == nil || armed.History.SeriesCount == 0 {
		t.Errorf("armed run recorded no history: %+v", armed.History)
	}
	if control.History != nil {
		t.Errorf("disabled history still reported a dump: %+v", control.History)
	}
}

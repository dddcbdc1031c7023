package harness

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"kalmanstream/internal/predictor"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("registry has %d experiments, want 13", len(all))
	}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("position %d: id %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E5")
	if err != nil || e.ID != "E5" {
		t.Fatalf("ByID(E5) = %v, %v", e.ID, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunCollectsStats(t *testing.T) {
	spec := predictor.Spec{Kind: predictor.KindStatic, Dim: 1}
	rs, err := Run(spec, 1, source.NormInf, stream.NewRandomWalk(1, 0, 1, 0.05, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ticks != 1000 {
		t.Fatalf("ticks = %d", rs.Ticks)
	}
	if rs.Messages == 0 || rs.Messages == 1000 {
		t.Fatalf("messages = %d, expected partial suppression", rs.Messages)
	}
	if rs.Bytes == 0 {
		t.Fatal("no bytes counted")
	}
	if rs.Violations.Count != 0 {
		t.Fatalf("%d bound violations", rs.Violations.Count)
	}
	if rs.SuppressionRatio() <= 0 || rs.SuppressionRatio() >= 1 {
		t.Fatalf("suppression ratio = %v", rs.SuppressionRatio())
	}
	if rs.Err.N() != 1000 {
		t.Fatalf("error samples = %d", rs.Err.N())
	}
	// The online auditor's independent accounting must reconcile with
	// the gate and report a clean loss-free run.
	if !rs.AuditClean() {
		t.Fatalf("loss-free run not audit-clean: audit=%+v ticks=%d messages=%d",
			rs.Audit, rs.Ticks, rs.Messages)
	}
	if rs.Audit.Suppressed != rs.Ticks-rs.Messages {
		t.Fatalf("audit suppressed %d, gate suppressed %d", rs.Audit.Suppressed, rs.Ticks-rs.Messages)
	}
	if rs.Audit.MaxRatio > 1 {
		t.Fatalf("suppressed deviation reached %.3f of δ on a loss-free link", rs.Audit.MaxRatio)
	}
}

// TestAllExperimentsRunSmoke runs every experiment at reduced scale and
// sanity-checks the outputs. This is the harness's own integration test;
// full-scale results live in EXPERIMENTS.md.
func TestAllExperimentsRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs take a few seconds")
	}
	cfg := Config{Ticks: 3000, Seed: 7}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != e.ID {
				t.Fatalf("result id %s", res.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range res.Tables {
				if tb.Rows() == 0 {
					t.Fatalf("empty table:\n%s", tb)
				}
			}
			if !strings.Contains(res.String(), e.ID) {
				t.Fatal("rendering lacks id")
			}
		})
	}
}

// TestExperimentsGolden is the reproduction gate at test scale: the whole
// suite, rendered exactly as `streamkf run -ticks 2000 -seed 42 all`
// prints it, must match the committed golden byte for byte. The full-size
// twin is `make repro-check` against experiments_full.txt.
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all_ticks2000_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(All(), Config{Ticks: 2000, Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, res := range results {
		got.WriteString(res.String() + "\n")
	}
	if got.String() != string(want) {
		t.Fatalf("experiment tables drifted from testdata/all_ticks2000_seed42.golden:\n%s", got.String())
	}
}

// TestE2KalmanWinsOnTrendingWalk pins the headline qualitative claim at
// reduced scale: on the structured stream, the Kalman predictor must
// strictly beat the cache at every δ in the grid.
func TestE2KalmanWinsOnTrendingWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative run takes a second")
	}
	cfg := Config{Ticks: 5000, Seed: 3}
	mkTrend := func() stream.Stream {
		return stream.NewComposite("trending-walk", cfg.Seed, 0,
			stream.NewLinearDrift(cfg.Seed+1, 0, 0.5, 0, cfg.Ticks),
			stream.NewRandomWalk(cfg.Seed+2, 0, 0.3, 0.05, cfg.Ticks),
		)
	}
	vol := measureVolatility(mkTrend)
	cache := predictor.Spec{Kind: predictor.KindStatic, Dim: 1}
	kf := predictor.Spec{Kind: predictor.KindKalman, Model: cvModel(0.02, 0.0025)}
	for _, mult := range []float64{2, 4, 8} {
		d := mult * vol
		crs, err := Run(cache, d, source.NormInf, mkTrend())
		if err != nil {
			t.Fatal(err)
		}
		krs, err := Run(kf, d, source.NormInf, mkTrend())
		if err != nil {
			t.Fatal(err)
		}
		if krs.Messages*2 > crs.Messages {
			t.Errorf("δ=%.3g: kalman %d msgs vs cache %d — want ≥2× win", d, krs.Messages, crs.Messages)
		}
	}
}

func TestCumulativeMessagesCheckpointing(t *testing.T) {
	spec := predictor.Spec{Kind: predictor.KindStatic, Dim: 1}
	cum, err := cumulativeMessages(spec, 0.5, stream.NewRandomWalk(2, 0, 1, 0.05, 1000), 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cum) != 4 {
		t.Fatalf("checkpoints = %d", len(cum))
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts decreased: %v", cum)
		}
	}
	if cum[3] == 0 {
		t.Fatal("no messages at final checkpoint")
	}
}

func TestDeltaGridAndVolatility(t *testing.T) {
	g := deltaGrid(2, 1, 2, 4)
	if len(g) != 3 || g[0] != 2 || g[2] != 8 {
		t.Fatalf("grid = %v", g)
	}
	vol := measureVolatility(func() stream.Stream { return stream.NewRandomWalk(5, 0, 3, 0, 5000) })
	if vol < 2.5 || vol > 3.5 {
		t.Fatalf("measured volatility %v, want ≈3", vol)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Ticks != 50000 || c.Seed != 42 {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{Ticks: 10, Seed: 1}.withDefaults()
	if c.Ticks != 10 || c.Seed != 1 {
		t.Fatalf("explicit config overridden: %+v", c)
	}
}

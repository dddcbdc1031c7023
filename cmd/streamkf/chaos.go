package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kalmanstream/internal/chaos"
)

// cmdChaos runs a deterministic fault schedule through the pipeline and
// reports the bounded-staleness verdict. The default schedule is the
// suite's headline scenario: a 5% loss burst, a partition that heals,
// and an uplink-only blackout that only the watchdog loop can heal.
// Exits nonzero when the run does not recover, so CI can gate on it.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	ticks := fs.Int64("ticks", 4500, "run length in ticks")
	seed := fs.Int64("seed", 1, "generator and link seed")
	delta := fs.Float64("delta", 0.5, "precision bound δ")
	heartbeat := fs.Int64("heartbeat", 25, "gate heartbeat interval (watchdog deadline derives as 2x)")
	deadline := fs.Int64("deadline", 0, "explicit watchdog deadline in ticks (0 = derive, negative = off)")
	window := fs.Int64("window", 0, "recovery window after the last fault clears (0 = 4x deadline)")
	schedule := fs.String("schedule", "", "fault schedule as name:from:until:kind[:p] entries separated by commas; kinds: drop, delay, dup, reorder, partition, fbdrop (empty = built-in scenario)")
	out := fs.String("out", "", "also write the summary to this file")
	healthOut := fs.String("health-out", "", "also write the SLO monitor's alert log to this file")
	noHealth := fs.Bool("no-health", false, "disarm the SLO monitor and the telemetry history it reads (the unarmed control arm)")
	bundleDir := fs.String("bundle-dir", "", "spool incident bundles captured during the run to this directory")
	noDiag := fs.Bool("no-diag", false, "disarm the flight recorder (no bundles, no attribution)")
	noFreshness := fs.Bool("no-freshness", false, "disarm freshness stamping (the unstamped control arm)")
	historyOut := fs.String("history-out", "", "write the run's full finest-tier telemetry-history dump to this file as JSON (none under -no-health)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sched := chaos.Schedule{
		{Name: "loss-burst", From: 500, Until: 1500, DropProb: 0.05},
		{Name: "partition", From: 2000, Until: 2400, Partition: true},
		{Name: "uplink-blackout", From: 2900, Until: 3300, DropProb: 1},
	}
	if *schedule != "" {
		var err error
		if sched, err = parseSchedule(*schedule); err != nil {
			return err
		}
	}

	rep, err := chaos.Run(chaos.Config{
		Ticks:            *ticks,
		Seed:             *seed,
		Delta:            *delta,
		HeartbeatEvery:   *heartbeat,
		WatchdogDeadline: *deadline,
		RecoveryWindow:   *window,
		Schedule:         sched,
		DisableHealth:    *noHealth,
		DisableDiag:      *noDiag,
		DisableFreshness: *noFreshness,
		BundleDir:        *bundleDir,
	})
	if err != nil {
		return err
	}

	var b strings.Builder
	b.WriteString("schedule:\n")
	for _, f := range sched {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	b.WriteString(rep.Summary())
	fmt.Print(b.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	if !*noHealth {
		hs := rep.HealthSummary()
		fmt.Print(hs)
		if *healthOut != "" {
			if err := os.WriteFile(*healthOut, []byte(hs), 0o644); err != nil {
				return err
			}
		}
	}
	if !*noDiag {
		fmt.Print(rep.BundleSummary())
	}
	if !*noFreshness {
		fmt.Print(rep.FreshnessSummary())
	}
	if *historyOut != "" && rep.History != nil {
		data, err := json.MarshalIndent(rep.History, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*historyOut, data, 0o644); err != nil {
			return err
		}
	}
	if !rep.Recovered {
		return fmt.Errorf("chaos: precision not restored within %d ticks of the last fault clearing at %d (last violation tick %d)",
			rep.RecoveryWindow, rep.ClearTick, rep.LastViolation)
	}
	if len(rep.NeverCleared) > 0 {
		return fmt.Errorf("chaos: alerts never cleared: %s", strings.Join(rep.NeverCleared, ", "))
	}
	// Every page must be explained by a bundle: a page without forensic
	// evidence is itself an observability failure CI should catch.
	if rep.UnbundledPages > 0 {
		return fmt.Errorf("chaos: %d page(s) fired without a matching incident bundle", rep.UnbundledPages)
	}
	// The delay-fault verdict: a stamped run with an armed monitor must
	// see every delay burst in the freshness SLO — degrade while held,
	// clear after heal. A delay the latency surface cannot see is an
	// observability failure even when precision recovers.
	if !*noFreshness && !*noHealth && rep.DelayFaults > 0 {
		if !rep.FreshnessDegraded {
			return fmt.Errorf("chaos: %d delay fault(s) never degraded the freshness objective", rep.DelayFaults)
		}
		if !rep.FreshnessCleared {
			return fmt.Errorf("chaos: freshness objective did not clear after the delay fault(s) healed")
		}
	}
	return nil
}

// parseSchedule decodes the -schedule DSL: comma-separated entries of
// name:from:until:kind[:p], e.g.
// "loss:100:600:drop:0.05,cut:1000:1200:partition".
func parseSchedule(s string) (chaos.Schedule, error) {
	var sched chaos.Schedule
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 4 {
			return nil, fmt.Errorf("chaos: bad schedule entry %q (want name:from:until:kind[:p])", entry)
		}
		from, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("chaos: bad from in %q: %w", entry, err)
		}
		until, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("chaos: bad until in %q: %w", entry, err)
		}
		f := chaos.Fault{Name: parts[0], From: from, Until: until}
		var p float64
		if len(parts) > 4 {
			if p, err = strconv.ParseFloat(parts[4], 64); err != nil {
				return nil, fmt.Errorf("chaos: bad parameter in %q: %w", entry, err)
			}
		}
		switch parts[3] {
		case "drop":
			f.DropProb = p
		case "delay":
			f.DelayTicks = int(p)
		case "dup":
			f.DuplicateProb = p
		case "reorder":
			f.ReorderProb = p
		case "partition":
			f.Partition = true
		case "fbdrop":
			f.FeedbackDropProb = p
		default:
			return nil, fmt.Errorf("chaos: unknown fault kind %q in %q", parts[3], entry)
		}
		sched = append(sched, f)
	}
	return sched, nil
}

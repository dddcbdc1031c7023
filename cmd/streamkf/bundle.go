package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"kalmanstream/internal/diag"
)

// cmdBundle lists and fetches incident bundles from a running
// kfserver's /debug/bundle endpoint. Without -id it prints the bundle
// index (memory ring plus disk spool); with -id it renders one bundle
// as a forensic report, or dumps the raw JSON with -json.
func cmdBundle(args []string) error {
	fs := flag.NewFlagSet("bundle", flag.ExitOnError)
	httpAddr := fs.String("http", "localhost:9654", "kfserver HTTP address (the -http flag it was started with)")
	id := fs.String("id", "", "bundle ID to fetch (empty = list all)")
	rawJSON := fs.Bool("json", false, "dump the bundle as raw JSON instead of the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: 5 * time.Second}
	base := fmt.Sprintf("http://%s/debug/bundle", *httpAddr)

	if *id == "" {
		return listBundleIndex(client, base)
	}
	resp, err := client.Get(base + "?id=" + *id)
	if err != nil {
		return fmt.Errorf("bundle: %w (is kfserver running with -http %s?)", err, *httpAddr)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("bundle %q not found (streamkf bundle lists the index)", *id)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", base, resp.Status)
	}
	var b diag.Bundle
	body := json.NewDecoder(resp.Body)
	if err := body.Decode(&b); err != nil {
		return fmt.Errorf("decoding bundle: %w", err)
	}
	if *rawJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(b)
	}
	fmt.Print(renderBundle(&b))
	return nil
}

func listBundleIndex(client *http.Client, base string) error {
	resp, err := client.Get(base)
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", base, resp.Status)
	}
	var infos []diag.BundleInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return fmt.Errorf("decoding bundle index: %w", err)
	}
	if len(infos) == 0 {
		fmt.Println("no incident bundles captured")
		return nil
	}
	fmt.Printf("%-40s %-20s %-7s %s\n", "ID", "CAPTURED", "SOURCE", "REASON")
	for _, info := range infos {
		fmt.Printf("%-40s %-20s %-7s %s\n",
			info.ID, info.CapturedAt.Format("2006-01-02 15:04:05"), info.Source, info.Reason)
	}
	return nil
}

// renderBundle formats one bundle as a human-readable incident report.
func renderBundle(b *diag.Bundle) string {
	var s strings.Builder
	fmt.Fprintf(&s, "incident %s\n", b.ID)
	fmt.Fprintf(&s, "  captured: %s\n", b.CapturedAt.Format(time.RFC3339))
	fmt.Fprintf(&s, "  reason:   %s\n", b.Reason)
	if b.Alert != nil {
		fmt.Fprintf(&s, "  alert:    %s %s -> %s at tick %d (burn %s/%s)\n",
			b.Alert.SLO, b.Alert.FromName, b.Alert.ToName, b.Alert.Tick,
			fmtBurn(b.Alert.BurnFast), fmtBurn(b.Alert.BurnSlow))
	}
	if b.Health != nil {
		fmt.Fprintf(&s, "  health:   severity %s, %d active alert(s) at tick %d\n",
			b.Health.Severity, b.Health.ActiveAlerts, b.Health.Tick)
	}

	s.WriteString("\ntop offenders:\n")
	writeOffenderTables(&s, b.TopK)

	if b.Latency != nil {
		s.WriteString("\nlatency at capture:\n")
		if e := b.Latency.E2E; e.Count > 0 {
			fmt.Fprintf(&s, "  e2e       %8d spans  p50 %s  p95 %s  p99 %s\n",
				e.Count, fmtSec(e.P50), fmtSec(e.P95), fmtSec(e.P99))
		}
		if st := b.Latency.Staleness; st.Count > 0 {
			fmt.Fprintf(&s, "  staleness %8d spans  p50 %s  p95 %s  p99 %s\n",
				st.Count, fmtSec(st.P50), fmtSec(st.P95), fmtSec(st.P99))
		}
		for series, chain := range b.LatencyTraces {
			fmt.Fprintf(&s, "  worst %s exemplar resolved to %d trace event(s)\n", series, len(chain))
		}
	}
	if len(b.Logs) > 0 {
		fmt.Fprintf(&s, "\nrecent logs (%d):\n", len(b.Logs))
		for _, rec := range b.Logs {
			fmt.Fprintf(&s, "  %s %-5s %s %s\n",
				rec.Time.Format("15:04:05.000"), rec.Level, rec.Msg, rec.Attrs)
		}
	}
	if len(b.TraceTail) > 0 {
		fmt.Fprintf(&s, "\ntrace tail: %d event(s) captured\n", len(b.TraceTail))
	}
	fmt.Fprintf(&s, "\nruntime: %d goroutines, %+d heap bytes, %d allocs over %.1fs before capture\n",
		b.Goroutines, b.Profile.HeapGrowthBytes, b.Profile.AllocObjects, b.Profile.Seconds)
	return s.String()
}

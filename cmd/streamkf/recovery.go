package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/wire"
)

// recoveryReport is the machine-readable verdict `streamkf recovery`
// writes (-report): what the kill lost, what recovery replayed, and the
// assertions the smoke gates on. CI uploads it as an artifact.
type recoveryReport struct {
	Streams           int      `json:"streams"`
	Ticks             int64    `json:"ticks"`
	KillTick          int64    `json:"kill_tick"`
	RecordsReplayed   float64  `json:"records_replayed"`
	CheckpointStreams float64  `json:"checkpoint_streams"`
	ResyncRequests    float64  `json:"watchdog_resync_requests"`
	StaleStreams      float64  `json:"streams_stale"`
	DeltaViolations   float64  `json:"audit_delta_violations"`
	AnswersByteEqual  bool     `json:"answers_byte_identical"`
	RestartMillis     int64    `json:"restart_millis"`
	Verdict           string   `json:"verdict"`
	FailedAssertions  []string `json:"failed_assertions,omitempty"`
}

// cmdRecovery is the end-to-end crash-recovery smoke behind
// `make recovery-smoke`: it spawns a real kfserver with a write-ahead
// log, drives a deterministic workload over TCP while mirroring it into
// an in-process control server, SIGKILLs the server mid-workload (with
// an unsynced tail in flight), restarts it on the same directory, and
// asserts the recovered server is indistinguishable from one that never
// died: recovery restored streams from a checkpoint
// (wal_recovered_streams > 0) and replayed the post-checkpoint log
// (wal_recovery_replayed_total > 0 — the pre-kill sequence guarantees a
// durable-but-not-checkpointed tail exists, see awaitCheckpoint),
// the restart triggered no resync storm (watchdog_resync_requests_total
// == 0, streams_stale == 0), the audit stayed clean
// (audit_delta_violations_total == 0), and the final answers are
// byte-identical to the control's. Exits nonzero on any violation so CI
// can gate on it.
func cmdRecovery(args []string) error {
	fs := flag.NewFlagSet("recovery", flag.ExitOnError)
	server := fs.String("server", "", "path to a built kfserver binary (required)")
	ticks := fs.Int64("ticks", 600, "workload length in ticks")
	streams := fs.Int("streams", 3, "concurrent streams")
	walDir := fs.String("wal-dir", "", "write-ahead log directory, recreated fresh each run (default: a temp dir)")
	report := fs.String("report", "", "write the JSON recovery report to this file")
	staleAfter := fs.Duration("stale-after", 2*time.Second, "watchdog deadline passed to kfserver (armed so the smoke proves no resync storm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("recovery: -server is required (build one: go build -o artifacts/kfserver ./cmd/kfserver)")
	}
	dir := *walDir
	if dir == "" {
		d, err := os.MkdirTemp("", "kfrecovery-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	} else {
		// The smoke owns its scratch directory: a stale log from a
		// previous run would make the first boot "recover" and skew every
		// assertion, so start from nothing.
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	// Reserve a port for the server. Closing the probe listener and
	// handing the address over races with other processes in principle;
	// in practice the smoke owns its CI runner.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := probe.Addr().String()
	probe.Close()

	spawn := func() (*exec.Cmd, error) {
		cmd := exec.Command(*server,
			"-addr", addr,
			"-wal-dir", dir,
			"-wal-flush", "20ms",
			"-checkpoint-every", "400ms",
			"-stale-after", staleAfter.String(),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("recovery: starting %s: %w", *server, err)
		}
		return cmd, nil
	}
	proc, err := spawn()
	if err != nil {
		return err
	}
	defer func() {
		if proc != nil && proc.Process != nil {
			_ = proc.Process.Kill()
			_ = proc.Wait()
		}
	}()

	c, err := dialRetry(addr, 10*time.Second)
	if err != nil {
		return err
	}

	// The control server lives in this process and sees every correction
	// exactly once: the recovered server must match it byte for byte.
	control := wire.NewServerWith(wire.Options{Metrics: telemetry.New()})
	defer control.Close()

	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
	ids := make([]string, *streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("rec-%d", i+1)
		if err := c.Register(ids[i], spec, 0.5); err != nil {
			return fmt.Errorf("recovery: register %s: %w", ids[i], err)
		}
		if err := control.Register(wire.RegisterPayload{ID: ids[i], Spec: spec, Delta: 0.5}); err != nil {
			return err
		}
	}

	val := func(j int, tick int64) []float64 {
		return []float64{math.Sin(float64(tick)/7) + float64(j)}
	}
	// send ships one tick of workload; the remote send is skipped when
	// remote is nil (replaying history the control already holds).
	send := func(tick int64, remote *wire.Client, alsoControl bool) error {
		for j, id := range ids {
			m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: id,
				Tick: tick, Value: val(j, tick)}
			if remote != nil {
				if err := remote.SendCorrection(m); err != nil {
					return fmt.Errorf("recovery: send tick %d: %w", tick, err)
				}
			}
			if alsoControl {
				if err := control.Apply(m); err != nil {
					return err
				}
			}
		}
		return nil
	}

	kill := *ticks / 2
	// Phase 1: paced so the group-commit flusher syncs behind the live
	// traffic.
	for tick := int64(0); tick < kill-40; tick++ {
		if err := send(tick, c, true); err != nil {
			return err
		}
		if tick%10 == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Wait until the server reports a completed checkpoint (it covers
	// the streams registered above and everything synced so far). The
	// next one is a full -checkpoint-every away, which makes the rest of
	// the pre-kill sequence deterministic: the tail below gets synced but
	// provably NOT checkpointed, so the restart must replay it.
	if err := awaitCheckpoint(c, 10*time.Second); err != nil {
		return err
	}
	// The replay set: a tail the 20ms flusher makes durable well inside
	// the 400ms checkpoint window...
	for tick := kill - 40; tick < kill-20; tick++ {
		if err := send(tick, c, true); err != nil {
			return err
		}
	}
	time.Sleep(70 * time.Millisecond)
	// ...then burst an unsynced tail and SIGKILL before the next flush:
	// these corrections die in the server's buffer, exactly what a crash
	// loses.
	for tick := kill - 20; tick < kill; tick++ {
		if err := send(tick, c, true); err != nil {
			return err
		}
	}
	if err := proc.Process.Kill(); err != nil {
		return err
	}
	_ = proc.Wait()
	proc = nil
	_ = c.Close()
	fmt.Printf("recovery: SIGKILLed kfserver at tick %d (pid gone, %d corrections in flight)\n", kill, 20**streams)

	restartStart := time.Now()
	proc, err = spawn()
	if err != nil {
		return err
	}
	c2, err := dialRetry(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c2.Close()
	restartMillis := time.Since(restartStart).Milliseconds()

	text, err := c2.Metrics()
	if err != nil {
		return fmt.Errorf("recovery: metrics after restart: %w", err)
	}
	rep := recoveryReport{
		Streams:           *streams,
		Ticks:             *ticks,
		KillTick:          kill,
		RecordsReplayed:   metricSum(text, "wal_recovery_replayed_total"),
		CheckpointStreams: metricSum(text, "wal_recovered_streams"),
		RestartMillis:     restartMillis,
	}

	// Re-register on the new connection and re-send the full history: the
	// server adopts each recovered replica, the monotonic-tick guard drops
	// what the log preserved and lands only the lost tail — a reconnecting
	// source's behaviour. Then both servers take the post-kill workload.
	for _, id := range ids {
		if err := c2.Register(id, spec, 0.5); err != nil {
			return fmt.Errorf("recovery: re-register %s: %w", id, err)
		}
	}
	for tick := int64(0); tick < kill; tick++ {
		if err := send(tick, c2, false); err != nil {
			return err
		}
	}
	for tick := kill; tick < *ticks; tick++ {
		if err := send(tick, c2, true); err != nil {
			return err
		}
	}

	rep.AnswersByteEqual = true
	for j, id := range ids {
		got, err := c2.Query(id, *ticks)
		if err != nil {
			return fmt.Errorf("recovery: query %s: %w", id, err)
		}
		want, err := control.Query(wire.QueryPayload{ID: id, Tick: *ticks})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got.Estimate, want.Estimate) || got.Bound != want.Bound {
			rep.AnswersByteEqual = false
			fmt.Printf("recovery: MISMATCH stream %s (j=%d): recovered %v±%g, control %v±%g\n",
				id, j, got.Estimate, got.Bound, want.Estimate, want.Bound)
		}
	}

	// Final metrics frame: the storm/staleness/audit gates.
	if text, err = c2.Metrics(); err != nil {
		return fmt.Errorf("recovery: final metrics: %w", err)
	}
	rep.ResyncRequests = metricSum(text, "watchdog_resync_requests_total")
	rep.StaleStreams = metricSum(text, "streams_stale")
	rep.DeltaViolations = metricSum(text, "audit_delta_violations_total")

	if rep.RecordsReplayed <= 0 {
		rep.FailedAssertions = append(rep.FailedAssertions, "wal_recovery_replayed_total == 0 (restart replayed nothing)")
	}
	if rep.CheckpointStreams <= 0 {
		rep.FailedAssertions = append(rep.FailedAssertions, "wal_recovered_streams == 0 (restart ignored the checkpoint)")
	}
	if rep.ResyncRequests != 0 {
		rep.FailedAssertions = append(rep.FailedAssertions, fmt.Sprintf("watchdog_resync_requests_total = %g (resync storm)", rep.ResyncRequests))
	}
	if rep.StaleStreams != 0 {
		rep.FailedAssertions = append(rep.FailedAssertions, fmt.Sprintf("streams_stale = %g", rep.StaleStreams))
	}
	if rep.DeltaViolations != 0 {
		rep.FailedAssertions = append(rep.FailedAssertions, fmt.Sprintf("audit_delta_violations_total = %g", rep.DeltaViolations))
	}
	if !rep.AnswersByteEqual {
		rep.FailedAssertions = append(rep.FailedAssertions, "recovered answers differ from control")
	}
	rep.Verdict = "RECOVERED"
	if len(rep.FailedAssertions) > 0 {
		rep.Verdict = "FAILED"
	}

	fmt.Printf("recovery: replayed %.0f records (%.0f streams from checkpoint), restart %dms\n",
		rep.RecordsReplayed, rep.CheckpointStreams, rep.RestartMillis)
	fmt.Printf("recovery: resync requests %.0f, stale streams %.0f, δ violations %.0f, answers byte-identical %v\n",
		rep.ResyncRequests, rep.StaleStreams, rep.DeltaViolations, rep.AnswersByteEqual)
	fmt.Printf("recovery: %s\n", rep.Verdict)

	if *report != "" {
		if err := os.MkdirAll(filepath.Dir(*report), 0o755); err != nil {
			return err
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*report, data, 0o644); err != nil {
			return err
		}
	}
	if rep.Verdict != "RECOVERED" {
		return fmt.Errorf("recovery: %s", strings.Join(rep.FailedAssertions, "; "))
	}
	return nil
}

// awaitCheckpoint polls the server's metrics until wal_checkpoints_total
// increments past its value at call time, returning within one poll
// period of a checkpoint completing — which means the NEXT one is a full
// checkpoint interval away, a window the caller can schedule durable-
// but-not-checkpointed traffic inside deterministically.
func awaitCheckpoint(c *wire.Client, budget time.Duration) error {
	text, err := c.Metrics()
	if err != nil {
		return fmt.Errorf("recovery: metrics while awaiting checkpoint: %w", err)
	}
	base := metricSum(text, "wal_checkpoints_total")
	deadline := time.Now().Add(budget)
	for {
		time.Sleep(20 * time.Millisecond)
		if text, err = c.Metrics(); err != nil {
			return fmt.Errorf("recovery: metrics while awaiting checkpoint: %w", err)
		}
		if metricSum(text, "wal_checkpoints_total") > base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("recovery: no checkpoint completed within %v", budget)
		}
	}
}

// dialRetry connects to a server that may still be starting (or
// recovering a large log) — recovery completes before the listener
// accepts, so the first successful dial implies a fully restored server.
func dialRetry(addr string, budget time.Duration) (*wire.Client, error) {
	deadline := time.Now().Add(budget)
	for {
		c, err := wire.Dial(addr)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("recovery: server at %s never came up: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// metricSum sums every series of one metric in a Prometheus text
// exposition (0 when the metric is absent — an unincremented counter and
// a missing one gate identically).
func metricSum(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if base, _, _ := strings.Cut(series, "{"); base != name {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
			sum += v
		}
	}
	return sum
}

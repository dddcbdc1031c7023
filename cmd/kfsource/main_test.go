package main

import (
	"bytes"
	"testing"

	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// TestAuditSummary reads the line kfsource prints off a real exposition:
// the auditor's totals over two streams, and the no-data branch of a
// server whose auditor has ingested nothing.
func TestAuditSummary(t *testing.T) {
	reg := telemetry.New()
	aud := trace.NewAuditor(reg, nil)
	expose := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if got, want := auditSummary(expose()), "no audit data (gate events not ingested)"; got != want {
		t.Errorf("idle auditor: %q, want %q", got, want)
	}
	if got := auditSummary(""); got != "no audit data (gate events not ingested)" {
		t.Errorf("empty snapshot: %q", got)
	}
	for tick := int64(0); tick < 5; tick++ {
		aud.Check("a", tick, 0.2, 0.5, true)
	}
	aud.Check("b", 0, 0.9, 0, false)
	aud.Check("b", 1, 0.7, 0.5, true) // suppressed above δ
	if got, want := auditSummary(expose()), "audited 7 ticks, 1 δ violations"; got != want {
		t.Errorf("two streams: %q, want %q", got, want)
	}
}

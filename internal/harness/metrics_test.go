package harness

import (
	"math"
	"strings"
	"testing"
)

func TestErrorAccumulator(t *testing.T) {
	var e Error
	e.Add([]float64{1, 2}, []float64{0, 0}) // errors 1, 2
	e.AddScalar(-3)
	if e.N() != 3 {
		t.Fatalf("N = %d", e.N())
	}
	if got := e.MAE(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("MAE = %v, want 2", got)
	}
	if got := e.RMSE(); math.Abs(got-math.Sqrt(14.0/3)) > 1e-12 {
		t.Fatalf("RMSE = %v", got)
	}
	if e.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", e.MaxAbs())
	}
}

func TestErrorEmpty(t *testing.T) {
	var e Error
	if e.RMSE() != 0 || e.MAE() != 0 || e.MaxAbs() != 0 {
		t.Fatal("empty accumulator not zero")
	}
}

func TestErrorAddMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	var e Error
	e.Add([]float64{1}, []float64{1, 2})
}

func TestViolations(t *testing.T) {
	var v Violations
	v.Check(0.5, 1)   // fine
	v.Check(1.5, 1)   // violation by 0.5
	v.Check(3, 1)     // violation by 2
	v.Check(1.0, 1.0) // boundary: fine
	if v.Checked != 4 || v.Count != 2 {
		t.Fatalf("violations = %+v", v)
	}
	if math.Abs(v.Worst-2) > 1e-12 {
		t.Fatalf("worst = %v", v.Worst)
	}
	if math.Abs(v.Rate()-0.5) > 1e-12 {
		t.Fatalf("rate = %v", v.Rate())
	}
	var empty Violations
	if empty.Rate() != 0 {
		t.Fatal("empty rate not 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "method", "msgs", "rmse")
	tb.AddRow("kalman", "120", "0.5")
	tb.AddRow("static-cache", "900") // short row padded
	tb.AddNote("lower is better")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "static-cache") || !strings.Contains(out, "kalman") {
		t.Fatal("rows missing")
	}
	if !strings.Contains(out, "note: lower is better") {
		t.Fatal("note missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, header, rule, 2 rows, note
	if len(lines) != 6 {
		t.Fatalf("line count = %d: %q", len(lines), out)
	}
	// Columns aligned: "msgs" column starts at the same offset in both rows.
	hdr := lines[1]
	row := lines[3]
	if strings.Index(hdr, "msgs") != strings.Index(row, "120") {
		t.Fatalf("columns not aligned:\n%s", out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

func TestFormatters(t *testing.T) {
	if F(0) != "0" {
		t.Fatal("F(0)")
	}
	if F(123456) != "1.23e+05" {
		t.Fatalf("F(123456) = %s", F(123456))
	}
	if F(1.5) != "1.5" {
		t.Fatalf("F(1.5) = %s", F(1.5))
	}
	if I(42) != "42" {
		t.Fatal("I")
	}
	if Pct(0.251) != "25.1%" {
		t.Fatalf("Pct = %s", Pct(0.251))
	}
	if Ratio(10, 5) != "2.00x" {
		t.Fatalf("Ratio = %s", Ratio(10, 5))
	}
	if Ratio(1, 0) != "inf" || Ratio(0, 0) != "1.00x" {
		t.Fatal("Ratio zero cases")
	}
}

func TestAddRowRejectsExtraCells(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "2") // exact width is fine
	tb.AddRow("1")      // short rows pad
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("extra cells silently accepted")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "3 cells for 2 columns") {
			t.Fatalf("panic message %v lacks cell/column counts", r)
		}
	}()
	tb.AddRow("1", "2", "3")
}

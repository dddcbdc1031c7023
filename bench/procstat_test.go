package main

import (
	"testing"
	"time"
)

func TestParseProcStatNameWithSpacesAndParens(t *testing.T) {
	// Field 2 is "(kf server) (v2))": the split must be at the LAST ')'.
	stat := "4242 (kf server) (v2)) S 1 4242 4242 0 -1 4194304 1234 0 0 0 150 75 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 225 * clockTick; cpu != want {
		t.Errorf("cpu = %v, want %v (utime 150 + stime 75 ticks)", cpu, want)
	}
	if clockTick != 10*time.Millisecond {
		t.Errorf("clockTick = %v, want USER_HZ's 10ms", clockTick)
	}
}

func TestParseProcStatRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "1 (x", "1 (x) S 1 2 3"} {
		if _, err := parseProcStat(s); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", s)
		}
	}
}

func TestParseStatusMB(t *testing.T) {
	status := "Name:\tkfserver\nVmPeak:\t  900000 kB\nVmHWM:\t   93240 kB\nVmRSS:\t   80000 kB\n"
	for key, kb := range map[string]float64{"VmHWM": 93240, "VmRSS": 80000} {
		mb, err := parseStatusMB(status, key)
		if err != nil {
			t.Fatal(err)
		}
		if want := kb * 1024 / 1e6; mb != want {
			t.Errorf("%s = %v MB, want %v", key, mb, want)
		}
	}
	if _, err := parseStatusMB("Name:\tx\n", "VmHWM"); err == nil {
		t.Error("missing VmHWM line accepted")
	}
}

func TestProcCPUSelf(t *testing.T) {
	if _, err := procCPU(0); err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	if mb, err := procStatusMB(0, "VmHWM"); err != nil || mb <= 0 {
		t.Errorf("own peak RSS = %v, %v", mb, err)
	}
}

package main

import "testing"

func TestParseListening(t *testing.T) {
	line := `time=2026-09-30T06:40:00.000Z level=INFO msg=listening component=kfserver addr=127.0.0.1:43121 trace=false stale-after=0s health=false`
	addr, ok := parseListening(line)
	if !ok || addr != "127.0.0.1:43121" {
		t.Errorf("got %q, %v", addr, ok)
	}
	for _, other := range []string{
		`time=… level=INFO msg="http listening" component=kfserver addr=127.0.0.1:9654`,
		`time=… level=INFO msg="wal recovered" dir=/tmp/x`,
		"",
	} {
		if addr, ok := parseListening(other); ok {
			t.Errorf("parseListening(%q) = %q, want no match", other, addr)
		}
	}
}

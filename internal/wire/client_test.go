package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

// closedAddr returns a loopback address nothing listens on.
func closedAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestDialGivesUpWithoutSleepingAfterLastAttempt: the dial loop backs off
// between attempts and never after the last one, so a one-attempt dial
// with a 1s backoff fails at once and a two-attempt one sleeps once.
func TestDialGivesUpWithoutSleepingAfterLastAttempt(t *testing.T) {
	addr := closedAddr(t)
	for _, tc := range []struct {
		attempts   int
		minS, maxS float64
	}{
		{attempts: 1, minS: 0, maxS: 0.5},
		{attempts: 2, minS: 0.8, maxS: 1.6},
	} {
		start := time.Now()
		_, err := DialReconnecting(addr, ReconnectPolicy{MaxAttempts: tc.attempts, BaseDelay: time.Second, MaxDelay: time.Second})
		took := time.Since(start).Seconds()
		if err == nil || !strings.Contains(err.Error(), "gave up after") {
			t.Fatalf("%d attempts: err = %v, want the dial loop to give up", tc.attempts, err)
		}
		if took < tc.minS || took >= tc.maxS {
			t.Fatalf("%d attempts with a 1s backoff took %.2fs, want [%.1f, %.1f)", tc.attempts, took, tc.minS, tc.maxS)
		}
	}
	start := time.Now()
	if _, err := Dial(addr); err == nil || time.Since(start) > 500*time.Millisecond {
		t.Fatalf("Dial: err = %v after %v, want an immediate failure", err, time.Since(start))
	}
}

// frameBytes is the encoding of one frame.
func frameBytes(typ uint8, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)+1))
	return append(append(b, typ), payload...)
}

// pipeClient opens a Client over net.Pipe to a scripted server: it grants
// the hello, writes afterHello, then answers every other frame the client
// sends with the bytes answer returns for it.
func pipeClient(t *testing.T, afterHello []byte, answer func(typ uint8, payload []byte) []byte) *Client {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		for {
			typ, payload, err := ReadFrame(server)
			if err != nil {
				return
			}
			out := append(frameBytes(FrameHello, appendHello(nil, serverCaps)), afterHello...)
			if typ != FrameHello {
				out = answer(typ, payload)
			}
			if _, err := server.Write(out); err != nil {
				return
			}
		}
	}()
	c := &Client{addr: "pipe"}
	if err := c.attach(client); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPushesAheadOfEveryReply: the server's two pushes, a resync request
// and a refusal, may precede any reply. Each request still gets its own
// reply intact, the resync hook fires once per push, and the refusal
// surfaces exactly once, on the next FlushCorrections; PollFeedback
// drains and counts the same pushes when no request is in flight.
func TestPushesAheadOfEveryReply(t *testing.T) {
	pushes := append(frameBytes(FrameResyncRequest, []byte("s")), frameBytes(FrameRefused, []byte("unknown stream handle 9"))...)
	ahead := func(typ uint8, payload []byte) []byte {
		switch typ {
		case FrameQueryBin:
			return slices.Concat(pushes, frameBytes(FrameAnswerBin, appendAnswerBin(nil, 0.25, []float64{1.5, -2})))
		case FramePing:
			return slices.Concat(pushes, frameBytes(FramePong, payload[:8]))
		case FrameMetrics:
			return slices.Concat(pushes, frameBytes(FrameMetricsReply, []byte("up 1\n")))
		case FrameRegister:
			return slices.Concat(pushes, frameBytes(FrameOK, binary.BigEndian.AppendUint32(nil, 7)))
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		call func(t *testing.T, c *Client) error // makes the request, checks its reply
	}{
		{"Query", func(t *testing.T, c *Client) error {
			ans, err := c.Query("s", 3)
			if err == nil && (ans.ID != "s" || ans.Tick != 3 || ans.Bound != 0.25 || len(ans.Estimate) != 2 || ans.Estimate[0] != 1.5 || ans.Estimate[1] != -2) {
				t.Fatalf("answer %+v", ans)
			}
			return err
		}},
		{"Ping", func(t *testing.T, c *Client) error { _, err := c.Ping(); return err }},
		{"Metrics", func(t *testing.T, c *Client) error {
			text, err := c.Metrics()
			if err == nil && text != "up 1\n" {
				t.Fatalf("metrics %q", text)
			}
			return err
		}},
		{"Register", func(t *testing.T, c *Client) error {
			err := c.Register("s", cvSpec(), 0.5)
			if err == nil && c.handles["s"] != 7 {
				t.Fatalf("handles %v, want s:7", c.handles)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := pipeClient(t, nil, ahead)
			resyncs := 0
			c.OnResyncRequest = func(id string) {
				if id != "s" {
					t.Errorf("resync request for %q", id)
				}
				resyncs++
			}
			for round := 1; round <= 2; round++ {
				if err := tc.call(t, c); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if resyncs != round {
					t.Fatalf("round %d: %d resync hooks, want %d", round, resyncs, round)
				}
				if err := c.FlushCorrections(); !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "handle 9") {
					t.Fatalf("round %d: first flush %v, want the refusal", round, err)
				}
				if err := c.FlushCorrections(); err != nil {
					t.Fatalf("round %d: second flush %v, want nil", round, err)
				}
			}
		})
	}
	t.Run("PollFeedback", func(t *testing.T) {
		c := pipeClient(t, pushes, ahead)
		resyncs := 0
		c.OnResyncRequest = func(string) { resyncs++ }
		n, refusals := 0, 0
		for deadline := time.Now().Add(5 * time.Second); n < 2 && time.Now().Before(deadline); {
			got, err := c.PollFeedback()
			n += got
			if err != nil {
				if !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "handle 9") {
					t.Fatalf("poll: %v", err)
				}
				refusals++
			}
		}
		if n != 2 || resyncs != 1 || refusals != 1 {
			t.Fatalf("polled %d pushes, %d resync hooks, %d refusals; want 2, 1, 1", n, resyncs, refusals)
		}
		if err := c.FlushCorrections(); err != nil {
			t.Fatalf("flush after the poll reported the refusal: %v", err)
		}
	})
}

// FuzzClientReplies points a Client at a server that grants the hello and
// then writes arbitrary bytes, while a goroutine drains everything the
// client writes. Query, Ping, Metrics, Register and PollFeedback must each
// return — a value or an error — and never panic or hang.
func FuzzClientReplies(f *testing.F) {
	f.Add(frameBytes(FrameResyncRequest, []byte("s")))
	f.Add(frameBytes(FrameRefused, []byte("refused")))
	f.Add(append(frameBytes(FrameResyncRequest, nil), frameBytes(FrameAnswerBin, appendAnswerBin(nil, 0, []float64{1}))...))
	f.Add(frameBytes(FrameAnswerBin, []byte{1, 2, 3}))
	f.Add(frameBytes(FrameOK, []byte{0, 0}))
	f.Add(frameBytes(FrameError, []byte("no")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, FrameAnswerBin})
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrameSize+1))
	f.Fuzz(func(t *testing.T, script []byte) {
		client, server := net.Pipe()
		go io.Copy(io.Discard, server)
		scripted := make(chan struct{})
		go func() {
			defer close(scripted)
			defer server.Close()
			if _, err := server.Write(frameBytes(FrameHello, appendHello(nil, serverCaps))); err == nil {
				server.Write(script)
			}
		}()
		c := &Client{addr: "pipe"}
		if err := c.attach(client); err != nil {
			t.Fatal(err)
		}
		c.OnResyncRequest = func(string) {}
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.Query("s", 1)
			c.Ping()
			c.Metrics()
			c.Register("s", cvSpec(), 0.5)
			c.PollFeedback()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("client hung on script % x", script)
		}
		c.Close()
		<-scripted
	})
}

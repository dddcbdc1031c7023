package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"kalmanstream/internal/telemetry"
)

// promSample is one series line of a Prometheus text exposition. labels
// keeps the raw `{k="v",…}` block (empty when the series has none); it is
// only decoded for the few series the bench looks up, which matters when
// a 10k-stream server exposes ≈170k lines.
type promSample struct {
	labels string
	value  float64
}

// promText indexes an exposition by metric name.
type promText struct {
	byName map[string][]promSample
	lines  int
}

// parsePromText parses the text format kfserver emits on /metrics and on
// the wire's metrics frame: `# HELP`/`# TYPE` comments, `name value`,
// `name{labels} value`, and histogram bucket lines that may carry an
// OpenMetrics exemplar suffix (` # {trace_id="…",stream="…"} v ts`).
func parsePromText(text string) (*promText, error) {
	p := &promText{byName: make(map[string][]promSample)}
	for len(text) > 0 {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, rest, err := splitSeries(line)
		if err != nil {
			return nil, err
		}
		// The value is the first token; an exemplar, if any, follows " # ".
		val := rest
		if i := strings.IndexByte(rest, ' '); i >= 0 {
			val = rest[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("promtext: bad value in %q: %w", line, err)
		}
		p.byName[name] = append(p.byName[name], promSample{labels: labels, value: v})
		p.lines++
	}
	return p, nil
}

// splitSeries cuts a series line into name, raw label block and the
// remainder after the separating space. A label value may contain any
// byte, including '}' and escaped quotes, so the block is scanned rather
// than searched for its closing brace.
func splitSeries(line string) (name, labels, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", "", fmt.Errorf("promtext: no value in %q", line)
	}
	name = line[:i]
	if line[i] == ' ' {
		return name, "", line[i+1:], nil
	}
	inQuotes := false
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case inQuotes && c == '\\':
			j++
		case c == '"':
			inQuotes = !inQuotes
		case !inQuotes && c == '}':
			if j+1 >= len(line) || line[j+1] != ' ' {
				return "", "", "", fmt.Errorf("promtext: no value in %q", line)
			}
			return name, line[i : j+1], line[j+2:], nil
		}
	}
	return "", "", "", fmt.Errorf("promtext: unterminated labels in %q", line)
}

// labelValue decodes one label's value out of a raw label block.
func labelValue(labels, key string) (string, bool) {
	for i := 1; i < len(labels); {
		eq := strings.IndexByte(labels[i:], '=')
		if eq < 0 {
			return "", false
		}
		k := labels[i : i+eq]
		j := i + eq + 2 // past `="`
		var b strings.Builder
		for j < len(labels) && labels[j] != '"' {
			if labels[j] == '\\' && j+1 < len(labels) {
				j++
				switch labels[j] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(labels[j])
				}
			} else {
				b.WriteByte(labels[j])
			}
			j++
		}
		if k == key {
			return b.String(), true
		}
		i = j + 2 // past `",`
	}
	return "", false
}

// matches reports whether a label block carries every given key=value pair.
func matches(labels string, pairs []string) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if v, ok := labelValue(labels, pairs[i]); !ok || v != pairs[i+1] {
			return false
		}
	}
	return true
}

// sum adds a metric's value over every series whose labels include the
// given pairs (all series when none are given). Missing metrics sum to 0,
// which is what a counter that never fired means.
func (p *promText) sum(name string, pairs ...string) float64 {
	var s float64
	for _, sm := range p.byName[name] {
		if matches(sm.labels, pairs) {
			s += sm.value
		}
	}
	return s
}

// histogram reassembles the histogram `name` from its _bucket/_sum/_count
// lines, restricted to series carrying the given label pairs and adding
// matching series together (so a per-stream histogram family can be read
// as one aggregate). The result is the registry's own snapshot type, so
// Mean and Quantile are the server's own estimators.
func (p *promText) histogram(name string, pairs ...string) telemetry.Sample {
	byBound := make(map[float64]int64)
	for _, sm := range p.byName[name+"_bucket"] {
		if !matches(sm.labels, pairs) {
			continue
		}
		le, ok := labelValue(sm.labels, "le")
		if !ok {
			continue
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		byBound[bound] += int64(sm.value)
	}
	h := telemetry.Sample{Name: name, Kind: telemetry.KindHistogram,
		Sum: p.sum(name+"_sum", pairs...), Count: int64(p.sum(name+"_count", pairs...))}
	for b, n := range byBound {
		h.Buckets = append(h.Buckets, telemetry.Bucket{UpperBound: b, Count: n})
	}
	sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].UpperBound < h.Buckets[j].UpperBound })
	return h
}

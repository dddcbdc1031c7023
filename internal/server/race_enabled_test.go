//go:build race

package server

// raceEnabled reports whether the race detector is compiled in: the
// heap-size gate skips under -race, whose shadow memory and instrumented
// allocations make a live-heap reading meaningless.
const raceEnabled = true

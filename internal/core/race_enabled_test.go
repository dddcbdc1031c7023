//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate skips under -race: sync.Pool deliberately drops a
// fraction of Puts when racing, so pooled paths — encoding/json's encode
// state among them — allocate there by design, not by regression.
const raceEnabled = true

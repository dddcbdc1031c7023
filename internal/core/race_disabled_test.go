//go:build !race

package core

// See race_enabled_test.go.
const raceEnabled = false

package main

import "testing"

// TestSelfcheckAllPass runs the binary's own invariant checker — hard
// bound, lock-step, bound composition, resync — at two seeds: what
// `streamkf selfcheck` promises an operator must hold in CI first.
func TestSelfcheckAllPass(t *testing.T) {
	for _, seed := range []string{"1", "42"} {
		if err := cmdSelfcheck([]string{"-seed", seed}); err != nil {
			t.Errorf("seed %s: %v", seed, err)
		}
	}
}

package predictor

import "fmt"

// Snapshot implementations. Snapshots are flat float64 vectors so they
// travel in an ordinary protocol message; each predictor defines its own
// layout and validates the length on Restore.

// AppendSnapshot implements Predictor: [last...].
func (s *Static) AppendSnapshot(dst []float64) []float64 { return append(dst, s.last...) }

// Restore implements Predictor.
func (s *Static) Restore(state []float64) error {
	if len(state) != s.dim {
		return fmt.Errorf("predictor: static snapshot has %d values, want %d", len(state), s.dim)
	}
	copy(s.last, state)
	return nil
}

// AppendSnapshot implements Predictor:
// [have, sinceTicks, last..., slope...].
func (d *DeadReckoning) AppendSnapshot(dst []float64) []float64 {
	dst = append(dst, float64(d.have), float64(d.sinceTicks))
	dst = append(dst, d.last...)
	return append(dst, d.slope...)
}

// Restore implements Predictor.
func (d *DeadReckoning) Restore(state []float64) error {
	if len(state) != 2+2*d.dim {
		return fmt.Errorf("predictor: dead-reckoning snapshot has %d values, want %d", len(state), 2+2*d.dim)
	}
	d.have = int(state[0])
	d.sinceTicks = int64(state[1])
	copy(d.last, state[2:2+d.dim])
	copy(d.slope, state[2+d.dim:])
	return nil
}

// AppendSnapshot implements Predictor: [primed, level...].
func (e *EWMA) AppendSnapshot(dst []float64) []float64 {
	primed := 0.0
	if e.primed {
		primed = 1
	}
	return append(append(dst, primed), e.level...)
}

// Restore implements Predictor.
func (e *EWMA) Restore(state []float64) error {
	if len(state) != 1+e.dim {
		return fmt.Errorf("predictor: ewma snapshot has %d values, want %d", len(state), 1+e.dim)
	}
	e.primed = state[0] != 0
	copy(e.level, state[1:])
	return nil
}

// filterSnapshotLen returns the snapshot length for an n-state filter:
// state vector plus row-major covariance.
func filterSnapshotLen(n int) int { return n + n*n }

// AppendSnapshot implements Predictor: [x..., P (row-major)...] for
// plain filters; adaptive filters additionally carry their noise matrices
// and innovation window (see kalman.Adaptive.AppendSnapshot), so a
// restored replica adapts identically from then on.
func (k *Kalman) AppendSnapshot(dst []float64) []float64 {
	if k.adaptive != nil {
		return k.adaptive.AppendSnapshot(dst)
	}
	return k.filter.AppendSnapshot(dst)
}

// Restore implements Predictor.
func (k *Kalman) Restore(state []float64) error {
	if k.adaptive != nil {
		return k.adaptive.Restore(state)
	}
	return k.filter.Restore(state)
}

// AppendSnapshot implements Predictor:
// [weights..., then per model: x..., P...].
func (k *KalmanBank) AppendSnapshot(dst []float64) []float64 {
	bank := k.bank
	dst = bank.AppendWeights(dst)
	for i := 0; i < bank.Size(); i++ {
		dst = bank.FilterAt(i).AppendSnapshot(dst)
	}
	return dst
}

// Restore implements Predictor.
func (k *KalmanBank) Restore(state []float64) error {
	bank := k.bank
	size := bank.Size()
	want := size
	for i := 0; i < size; i++ {
		want += filterSnapshotLen(bank.FilterAt(i).StateDim())
	}
	if len(state) != want {
		return fmt.Errorf("predictor: bank snapshot has %d values, want %d", len(state), want)
	}
	if err := bank.SetWeights(state[:size]); err != nil {
		return err
	}
	off := size
	for i := 0; i < size; i++ {
		f := bank.FilterAt(i)
		n := filterSnapshotLen(f.StateDim())
		if err := f.Restore(state[off : off+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

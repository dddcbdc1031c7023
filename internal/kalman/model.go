// Package kalman implements a discrete-time linear Kalman filter together
// with the canonical process models used in stream resource management:
// random walk, constant velocity, constant acceleration (in one and two
// dimensions), and an innovation-driven adaptive variant that tunes its
// noise covariances online.
//
// The filter follows the standard predict/update recursion with the
// Joseph-form covariance update for numerical robustness; covariances are
// re-symmetrized after every step so replicas remain bit-identical over
// millions of ticks.
package kalman

import (
	"errors"
	"fmt"

	"kalmanstream/internal/mat"
)

// Model describes a linear-Gaussian state-space system:
//
//	x_{t+1} = F·x_t + w_t,   w ~ N(0, Q)
//	z_t     = H·x_t + v_t,   v ~ N(0, R)
//
// with state dimension n and observation dimension m.
type Model struct {
	// Name identifies the model for diagnostics and wire negotiation.
	Name string
	// F is the n×n state-transition matrix.
	F *mat.Matrix
	// H is the m×n observation matrix.
	H *mat.Matrix
	// Q is the n×n process-noise covariance.
	Q *mat.Matrix
	// R is the m×m measurement-noise covariance.
	R *mat.Matrix
}

// StateDim returns the state dimension n.
func (m *Model) StateDim() int { return m.F.Rows() }

// ObsDim returns the observation dimension m.
func (m *Model) ObsDim() int { return m.H.Rows() }

// Validate checks internal dimensional consistency.
func (m *Model) Validate() error {
	if m.F == nil || m.H == nil || m.Q == nil || m.R == nil {
		return errors.New("kalman: model has nil matrices")
	}
	n := m.F.Rows()
	if m.F.Cols() != n {
		return fmt.Errorf("kalman: F is %d×%d, want square", m.F.Rows(), m.F.Cols())
	}
	if m.H.Cols() != n {
		return fmt.Errorf("kalman: H has %d columns, want %d", m.H.Cols(), n)
	}
	obs := m.H.Rows()
	if m.Q.Rows() != n || m.Q.Cols() != n {
		return fmt.Errorf("kalman: Q is %d×%d, want %d×%d", m.Q.Rows(), m.Q.Cols(), n, n)
	}
	if m.R.Rows() != obs || m.R.Cols() != obs {
		return fmt.Errorf("kalman: R is %d×%d, want %d×%d", m.R.Rows(), m.R.Cols(), obs, obs)
	}
	return nil
}

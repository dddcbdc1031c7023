package predictor

import (
	"errors"
	"fmt"
	"math"

	"kalmanstream/internal/kalman"
	"kalmanstream/internal/mat"
)

// Kind names a predictor family.
type Kind string

// Predictor kinds.
const (
	KindStatic        Kind = "static"
	KindDeadReckoning Kind = "dead-reckoning"
	KindEWMA          Kind = "ewma"
	KindHolt          Kind = "holt"
	KindKalman        Kind = "kalman"
	KindKalmanBank    Kind = "kalman-bank"
)

// ModelKind names a Kalman process model.
type ModelKind string

// Kalman model kinds.
const (
	ModelRandomWalk           ModelKind = "random-walk"
	ModelRandomWalkND         ModelKind = "random-walk-nd"
	ModelConstantVelocity     ModelKind = "constant-velocity"
	ModelConstantAcceleration ModelKind = "constant-acceleration"
	ModelConstantVelocity2D   ModelKind = "constant-velocity-2d"
)

// ModelSpec is a serializable description of a Kalman process model; the
// source ships it to the server once at registration so both sides build
// identical replicas.
type ModelSpec struct {
	Kind ModelKind `json:"kind"`
	// Dt is the tick interval for kinematic models. Zero means 1.
	Dt float64 `json:"dt,omitempty"`
	// Q is the process-noise intensity.
	Q float64 `json:"q"`
	// R is the measurement-noise variance.
	R float64 `json:"r"`
	// Dim is the dimension for ModelRandomWalkND.
	Dim int `json:"dim,omitempty"`
}

// Build constructs the model the spec describes.
func (ms ModelSpec) Build() (*kalman.Model, error) {
	dt := ms.Dt
	if dt == 0 {
		dt = 1
	}
	if ms.Q <= 0 || ms.R <= 0 {
		return nil, fmt.Errorf("predictor: model %q needs positive noise, got q=%g r=%g", ms.Kind, ms.Q, ms.R)
	}
	switch ms.Kind {
	case ModelRandomWalk:
		return kalman.RandomWalk(ms.Q, ms.R), nil
	case ModelRandomWalkND:
		if ms.Dim <= 0 {
			return nil, fmt.Errorf("predictor: model %q needs positive dim", ms.Kind)
		}
		return kalman.RandomWalkND(ms.Dim, ms.Q, ms.R), nil
	case ModelConstantVelocity:
		return kalman.ConstantVelocity(dt, ms.Q, ms.R), nil
	case ModelConstantAcceleration:
		return kalman.ConstantAcceleration(dt, ms.Q, ms.R), nil
	case ModelConstantVelocity2D:
		return kalman.ConstantVelocity2D(dt, ms.Q, ms.R), nil
	default:
		return nil, fmt.Errorf("predictor: unknown model kind %q", ms.Kind)
	}
}

// ObsDim returns the observation dimension the built model will have.
func (ms ModelSpec) ObsDim() int {
	switch ms.Kind {
	case ModelRandomWalkND:
		return ms.Dim
	case ModelConstantVelocity2D:
		return 2
	default:
		return 1
	}
}

// Spec is a serializable description of a predictor. Both endpoints of a
// stream build their replica from the same Spec, which is the protocol's
// registration payload.
type Spec struct {
	Kind Kind `json:"kind"`
	// Dim is the measurement dimension, required for non-Kalman kinds.
	Dim int `json:"dim,omitempty"`
	// Alpha is the EWMA/Holt level smoothing factor.
	Alpha float64 `json:"alpha,omitempty"`
	// Beta is the Holt trend smoothing factor.
	Beta float64 `json:"beta,omitempty"`
	// Model describes the Kalman process model.
	Model ModelSpec `json:"model,omitempty"`
	// Adaptive enables innovation-driven noise adaptation for Kalman.
	Adaptive bool `json:"adaptive,omitempty"`
	// AdaptiveWindow overrides the adaptation window (0 = default).
	AdaptiveWindow int `json:"adaptiveWindow,omitempty"`
	// Models lists the candidate models for KindKalmanBank; all must
	// share the observation dimension.
	Models []ModelSpec `json:"models,omitempty"`
	// BankFloor is the minimum model probability for KindKalmanBank
	// (0 = default).
	BankFloor float64 `json:"bankFloor,omitempty"`
}

// The size limits Build holds every spec to: a registration, a logged
// one or a checkpointed one, cannot make a replica larger than these.
// Every spec the experiments, examples and commands use is well inside.
const (
	MaxDim            = 64   // Spec.Dim and every ModelSpec.Dim
	MaxAdaptiveWindow = 4096 // Spec.AdaptiveWindow
	MaxModels         = 8    // len(Spec.Models)
	// MaxSnapshot bounds the floats a replica's snapshot can ever hold,
	// the most one wire message carries: a source resyncs its server
	// with the snapshot, and a checkpoint stores it in one record.
	MaxSnapshot = math.MaxUint16
)

// ErrSpecTooLarge refuses a spec past a size limit.
var ErrSpecTooLarge = errors.New("predictor: spec exceeds a size limit")

// ErrSpecNonFinite refuses a spec with a NaN or ±Inf parameter, which
// every range check lets through (a NaN compares false) into a replica
// that predicts NaN. JSON cannot carry one, but an in-process caller can.
var ErrSpecNonFinite = errors.New("predictor: spec has a non-finite parameter")

func (ms ModelSpec) finite() bool { return mat.VecIsFinite([]float64{ms.Dt, ms.Q, ms.R}) }

// Build constructs the predictor the spec describes. Calling Build twice
// yields independent but behaviourally identical replicas. A spec past a
// size limit is refused with ErrSpecTooLarge, and one with a non-finite
// parameter with ErrSpecNonFinite, before anything is allocated.
func (s Spec) Build() (Predictor, error) {
	tooLarge := s.Dim > MaxDim || s.Model.Dim > MaxDim || s.AdaptiveWindow > MaxAdaptiveWindow || len(s.Models) > MaxModels
	for _, m := range s.Models {
		tooLarge = tooLarge || m.Dim > MaxDim
	}
	// Inside the field limits only an adaptive random walk in d
	// dimensions can pass MaxSnapshot: once its window fills, its snapshot
	// (kalman.Adaptive.AppendSnapshot) holds 3d²+d+7 floats plus d+d² a
	// window slot.
	d, window := max(s.Model.Dim, 0), s.AdaptiveWindow
	if window <= 0 {
		window = kalman.DefaultWindow
	}
	wideWalk := s.Kind == KindKalman && s.Adaptive && s.Model.Kind == ModelRandomWalkND
	if tooLarge || wideWalk && 3*d*d+d+7+window*(d+d*d) > MaxSnapshot {
		return nil, fmt.Errorf("%w: the limits are dim %d, adaptive window %d, models %d, snapshot %d floats",
			ErrSpecTooLarge, MaxDim, MaxAdaptiveWindow, MaxModels, MaxSnapshot)
	}
	finite := s.Model.finite() && mat.VecIsFinite([]float64{s.Alpha, s.Beta, s.BankFloor})
	for _, m := range s.Models {
		finite = finite && m.finite()
	}
	if !finite {
		return nil, ErrSpecNonFinite
	}
	switch s.Kind {
	case KindStatic:
		if s.Dim <= 0 {
			return nil, fmt.Errorf("predictor: %q spec needs positive dim", s.Kind)
		}
		return NewStatic(s.Dim), nil
	case KindDeadReckoning:
		if s.Dim <= 0 {
			return nil, fmt.Errorf("predictor: %q spec needs positive dim", s.Kind)
		}
		return NewDeadReckoning(s.Dim), nil
	case KindEWMA:
		if s.Dim <= 0 {
			return nil, fmt.Errorf("predictor: %q spec needs positive dim", s.Kind)
		}
		return NewEWMA(s.Dim, s.Alpha)
	case KindHolt:
		if s.Dim <= 0 {
			return nil, fmt.Errorf("predictor: %q spec needs positive dim", s.Kind)
		}
		return NewHolt(s.Dim, s.Alpha, s.Beta)
	case KindKalman:
		model, err := s.Model.Build()
		if err != nil {
			return nil, err
		}
		if s.Adaptive {
			return NewAdaptiveKalman(model, kalman.AdaptiveConfig{
				Window: s.AdaptiveWindow,
				AdaptR: true,
				AdaptQ: true,
			})
		}
		return NewKalman(model)
	case KindKalmanBank:
		if len(s.Models) == 0 {
			return nil, fmt.Errorf("predictor: %q spec needs candidate models", s.Kind)
		}
		models := make([]*kalman.Model, len(s.Models))
		for i, ms := range s.Models {
			m, err := ms.Build()
			if err != nil {
				return nil, fmt.Errorf("predictor: bank model %d: %w", i, err)
			}
			models[i] = m
		}
		return NewKalmanBank(models, kalman.BankConfig{Floor: s.BankFloor})
	default:
		return nil, fmt.Errorf("predictor: unknown kind %q", s.Kind)
	}
}

// ObsDim returns the measurement dimension the built predictor will have.
func (s Spec) ObsDim() int {
	switch s.Kind {
	case KindKalman:
		return s.Model.ObsDim()
	case KindKalmanBank:
		if len(s.Models) > 0 {
			return s.Models[0].ObsDim()
		}
		return 0
	default:
		return s.Dim
	}
}

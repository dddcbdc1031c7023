package query

import (
	"fmt"
	"math"

	"kalmanstream/internal/source"
)

// Spatial queries over 2-D position streams gated with the L2 norm. The
// δ bound is then a Euclidean disc around the server's estimate, so
// distances and containment compose by the triangle inequality:
//
//	| dist(true, p) − dist(est, p) | ≤ δ
//
// These are the moving-object queries (geofencing, proximity) the 2-D
// constant-velocity model exists for.

// l2Position fetches a 2-D estimate and validates that the stream's gate
// norm makes the δ bound a Euclidean disc.
func (e *Engine) l2Position(id string) (x, y, bound float64, err error) {
	norm, err := e.srv.Norm(id)
	if err != nil {
		return 0, 0, 0, err
	}
	if norm != source.NormL2 {
		return 0, 0, 0, fmt.Errorf("query: stream %q uses the %s gate; spatial queries need L2", id, norm)
	}
	est, b, err := e.answer(id)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(est) != 2 {
		return 0, 0, 0, fmt.Errorf("query: stream %q has dim %d; spatial queries need 2-D positions", id, len(est))
	}
	return est[0], est[1], b, nil
}

// Distance answers the stream's Euclidean distance to the point (px, py)
// with a guaranteed bound.
func (e *Engine) Distance(id string, px, py float64) (Answer, error) {
	x, y, b, err := e.l2Position(id)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Estimate: math.Hypot(x-px, y-py), Bound: b}, nil
}

// WithinRadius answers whether the stream's true position lies within
// radius of (px, py) — a geofence predicate. True and False are certain.
func (e *Engine) WithinRadius(id string, px, py, radius float64) (Tristate, error) {
	if radius < 0 {
		return Unknown, fmt.Errorf("query: negative radius %g", radius)
	}
	d, err := e.Distance(id, px, py)
	if err != nil {
		return Unknown, err
	}
	switch {
	case d.Estimate+d.Bound <= radius:
		return True, nil
	case d.Estimate-d.Bound > radius:
		return False, nil
	default:
		return Unknown, nil
	}
}

// Separation answers the Euclidean distance between two position streams
// with the composed bound δ₁+δ₂ — the proximity-alert primitive.
func (e *Engine) Separation(idA, idB string) (Answer, error) {
	ax, ay, ab, err := e.l2Position(idA)
	if err != nil {
		return Answer{}, err
	}
	bx, by, bb, err := e.l2Position(idB)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Estimate: math.Hypot(ax-bx, ay-by), Bound: ab + bb}, nil
}

// CloserThan answers whether two streams' true positions are within the
// given distance of each other. True and False are certain.
func (e *Engine) CloserThan(idA, idB string, distance float64) (Tristate, error) {
	if distance < 0 {
		return Unknown, fmt.Errorf("query: negative distance %g", distance)
	}
	sep, err := e.Separation(idA, idB)
	if err != nil {
		return Unknown, err
	}
	switch {
	case sep.Estimate+sep.Bound <= distance:
		return True, nil
	case sep.Estimate-sep.Bound > distance:
		return False, nil
	default:
		return Unknown, nil
	}
}

// WeightedSum answers Σ wᵢ·vᵢ over the streams' component with the
// composed bound Σ |wᵢ|·δᵢ — portfolio values, weighted fleet loads.
func (e *Engine) WeightedSum(ids []string, weights []float64, component int) (Answer, error) {
	if len(ids) == 0 {
		return Answer{}, fmt.Errorf("query: WeightedSum over no streams")
	}
	if len(ids) != len(weights) {
		return Answer{}, fmt.Errorf("query: %d streams but %d weights", len(ids), len(weights))
	}
	var sum, bound float64
	for i, id := range ids {
		v, b, err := e.value(id, component)
		if err != nil {
			return Answer{}, err
		}
		sum += weights[i] * v
		bound += math.Abs(weights[i]) * b
	}
	return Answer{Estimate: sum, Bound: bound}, nil
}

package dsp

import (
	"errors"
	"fmt"
	"sort"
)

// Spline is a natural cubic spline through a set of (x, y) knots. Chronos
// uses it to interpolate the measured channel phase and magnitude across
// OFDM subcarriers in order to estimate the channel at the (unmeasurable)
// zero subcarrier, which is free of packet-detection delay (§5 of the
// paper).
type Spline struct {
	xs []float64
	ys []float64
	// Per-interval polynomial coefficients:
	// s(x) = a[i] + b[i]·dx + c[i]·dx² + d[i]·dx³, dx = x - xs[i].
	b, c, d []float64
}

// ErrSplineInput reports invalid knot data.
var ErrSplineInput = errors.New("dsp: spline needs at least two strictly increasing knots")

// NewSpline builds a natural cubic spline through the given knots. The xs
// must be strictly increasing and len(xs) == len(ys) >= 2. With exactly two
// knots the spline degenerates to a line.
func NewSpline(xs, ys []float64) (*Spline, error) {
	if err := checkKnots(xs, ys); err != nil {
		return nil, err
	}
	n := len(xs)
	s := &Spline{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
		b:  make([]float64, n),
		c:  make([]float64, n),
		d:  make([]float64, n),
	}
	s.fit(make([]float64, 5*n))
	return s, nil
}

// checkKnots validates spline knots: at least two, as many ys as xs,
// and strictly increasing xs.
func checkKnots(xs, ys []float64) error {
	n := len(xs)
	if n < 2 || len(ys) != n {
		return fmt.Errorf("%w (got %d xs, %d ys)", ErrSplineInput, len(xs), len(ys))
	}
	if !sort.Float64sAreSorted(xs) {
		return fmt.Errorf("%w: xs not sorted", ErrSplineInput)
	}
	for i := 1; i < n; i++ {
		if xs[i] == xs[i-1] {
			return fmt.Errorf("%w: duplicate knot x=%g", ErrSplineInput, xs[i])
		}
	}
	return nil
}

// fit computes the per-interval coefficients b, c, d through the
// validated knots s.xs, s.ys. The coefficient slices (each len(xs)) and
// work (at least 5·len(xs) values, the tridiagonal solve's scratch)
// must arrive zeroed.
func (s *Spline) fit(work []float64) {
	xs, ys := s.xs, s.ys
	n := len(xs)
	if n == 2 {
		s.b[0] = (ys[1] - ys[0]) / (xs[1] - xs[0])
		s.b[1] = s.b[0]
		return
	}

	// Solve the tridiagonal system for the second derivatives (natural
	// boundary: c[0] = c[n-1] = 0) using the Thomas algorithm.
	h := work[:n-1]
	for i := 0; i < n-1; i++ {
		h[i] = xs[i+1] - xs[i]
	}
	alpha := work[n : 2*n]
	l := work[2*n : 3*n]
	mu := work[3*n : 4*n]
	z := work[4*n : 5*n]
	for i := 1; i < n-1; i++ {
		alpha[i] = 3*(ys[i+1]-ys[i])/h[i] - 3*(ys[i]-ys[i-1])/h[i-1]
	}
	l[0] = 1
	for i := 1; i < n-1; i++ {
		l[i] = 2*(xs[i+1]-xs[i-1]) - h[i-1]*mu[i-1]
		mu[i] = h[i] / l[i]
		z[i] = (alpha[i] - h[i-1]*z[i-1]) / l[i]
	}
	l[n-1] = 1
	for j := n - 2; j >= 0; j-- {
		s.c[j] = z[j] - mu[j]*s.c[j+1]
		s.b[j] = (ys[j+1]-ys[j])/h[j] - h[j]*(s.c[j+1]+2*s.c[j])/3
		s.d[j] = (s.c[j+1] - s.c[j]) / (3 * h[j])
	}
}

// At evaluates the spline at x. Outside the knot range the boundary cubic
// is extrapolated, which is exactly what the zero-subcarrier estimate
// needs when subcarrier 0 sits between the measured ±1 indices (it never
// does for 802.11n, but guard bands can push the query to the edge).
func (s *Spline) At(x float64) float64 {
	n := len(s.xs)
	// Binary search for the interval containing x.
	i := sort.SearchFloat64s(s.xs, x)
	switch {
	case i <= 0:
		i = 0
	case i >= n:
		i = n - 2
	default:
		i--
	}
	if i > n-2 {
		i = n - 2
	}
	dx := x - s.xs[i]
	return s.ys[i] + dx*(s.b[i]+dx*(s.c[i]+dx*s.d[i]))
}

// maxStackKnots is the largest knot count InterpolateAt fits without
// allocating: up to it the coefficients and the solve scratch live in
// fixed arrays on the caller's stack. CSI reports 30 subcarriers.
const maxStackKnots = 64

// InterpolateAt fits a natural cubic spline to (xs, ys) and evaluates it
// at x — the same arithmetic as NewSpline(xs, ys).At(x), allocation-free
// for up to maxStackKnots knots.
func InterpolateAt(xs, ys []float64, x float64) (float64, error) {
	if len(xs) > maxStackKnots {
		sp, err := NewSpline(xs, ys)
		if err != nil {
			return 0, err
		}
		return sp.At(x), nil
	}
	if err := checkKnots(xs, ys); err != nil {
		return 0, err
	}
	n := len(xs)
	var b, c, d [maxStackKnots]float64
	var work [5 * maxStackKnots]float64
	s := Spline{xs: xs, ys: ys, b: b[:n], c: c[:n], d: d[:n]}
	s.fit(work[:5*n])
	return s.At(x), nil
}

// LinearAt performs straight-line interpolation of (xs, ys) at x, used as
// the ablation baseline for the spline (DESIGN.md: "interp" ablation).
// xs must be strictly increasing with at least two points.
func LinearAt(xs, ys []float64, x float64) (float64, error) {
	n := len(xs)
	if n < 2 || len(ys) != n {
		return 0, fmt.Errorf("%w (got %d xs, %d ys)", ErrSplineInput, len(xs), len(ys))
	}
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	if x1 == x0 {
		return 0, fmt.Errorf("%w: duplicate knot x=%g", ErrSplineInput, x0)
	}
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0), nil
}

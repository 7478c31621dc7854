// Package gaussian implements the univariate Gaussian machinery underlying
// the Gaussian uncertainty model of Böhm, Pryakhin and Schubert (ICDE 2006):
// probability density functions, the joint-probability lemma for pairs of
// probabilistic features (Lemma 1), the conservative hull and floor
// approximations of all Gaussians stored in a Gauss-tree node (Lemmas 2 and
// 3), and the hull integral that drives the Gauss-tree split strategy.
//
// All functions operate on the standard-deviation parameterization
//
//	N(μ,σ)(x) = 1/(√(2π)·σ) · exp(−(x−μ)²/(2σ²)).
//
// Because identification workloads multiply densities across dozens of
// dimensions, every quantity is also available in log space; the package
// additionally provides a streaming log-sum-exp accumulator used to evaluate
// Bayes denominators without underflow.
package gaussian

import (
	"errors"
	"math"
)

// Mathematical constants used throughout the package.
const (
	// Ln2Pi is ln(2π).
	Ln2Pi = 1.8378770664093454835606594728112353
	// InvSqrt2Pi is 1/√(2π), the peak density of the standard normal.
	InvSqrt2Pi = 0.3989422804014326779399460599343819
	// InvSqrt2PiE is 1/√(2πe); the density value N(μ̌, μ̌−x)(x) equals
	// InvSqrt2PiE/(μ̌−x) in the sloped sectors (II) and (VI) of Lemma 2.
	InvSqrt2PiE = 0.2419707245191433497977301529840629
	// Sqrt2 is √2.
	Sqrt2 = 1.4142135623730950488016887242096981
)

// ErrInvalidSigma is returned (or wrapped) by constructors and validators
// when a standard deviation is not strictly positive and finite.
var ErrInvalidSigma = errors.New("gaussian: standard deviation must be positive and finite")

// PDF returns the density of the normal distribution N(mu, sigma) at x.
// sigma must be strictly positive; the function does not validate its
// arguments (callers validate once at ingestion time).
func PDF(mu, sigma, x float64) float64 {
	z := (x - mu) / sigma
	return InvSqrt2Pi / sigma * math.Exp(-0.5*z*z)
}

// LogPDF returns ln N(mu, sigma)(x). It is exact for densities far below
// the smallest positive float64 and is therefore the preferred form for
// multi-dimensional score computations.
func LogPDF(mu, sigma, x float64) float64 {
	z := (x - mu) / sigma
	return -0.5*Ln2Pi - math.Log(sigma) - 0.5*z*z
}

// StdCDF returns the standard normal CDF Φ(z).
func StdCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/Sqrt2))
}

// StdQuantile returns Φ⁻¹(p) for p in (0,1), the standard normal quantile
// function. It is used to derive the 95% hyper-rectangle approximations the
// paper's X-tree baseline stores (z = Φ⁻¹(0.975) ≈ 1.96).
func StdQuantile(p float64) float64 {
	return Sqrt2 * math.Erfinv(2*p-1)
}

// ValidateSigma reports whether sigma is a usable standard deviation.
func ValidateSigma(sigma float64) error {
	if !(sigma > 0) || math.IsInf(sigma, 1) || math.IsNaN(sigma) {
		return ErrInvalidSigma
	}
	return nil
}

// Interval is a closed interval [Lo, Hi] on one parameter axis (a μ-range or
// a σ-range of a Gauss-tree minimum bounding rectangle).
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies in [Lo, Hi].
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Extend grows the interval to include x and returns the result.
func (iv Interval) Extend(x float64) Interval {
	if x < iv.Lo {
		iv.Lo = x
	}
	if x > iv.Hi {
		iv.Hi = x
	}
	return iv
}

// Union returns the smallest interval containing both iv and other.
func (iv Interval) Union(other Interval) Interval {
	if other.Lo < iv.Lo {
		iv.Lo = other.Lo
	}
	if other.Hi > iv.Hi {
		iv.Hi = other.Hi
	}
	return iv
}

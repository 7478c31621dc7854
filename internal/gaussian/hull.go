package gaussian

import "math"

// Hull evaluates the conservative approximation ˆN_{μ̌,μ̂,σ̌,σ̂}(x) of Lemma 2:
// the pointwise maximum over all Gaussians N(μ,σ) with μ∈[mu.Lo,mu.Hi] and
// σ∈[sigma.Lo,sigma.Hi]. The result upper-bounds the density of every
// probabilistic feature stored in a Gauss-tree node whose minimum bounding
// rectangle is (mu, sigma).
//
// The seven sectors of the piecewise closed form (paper Figure 3):
//
//	(I)   x <  μ̌−σ̂          N(μ̌, σ̂)(x)
//	(II)  μ̌−σ̂ ≤ x < μ̌−σ̌     N(μ̌, μ̌−x)(x)   — the 45° sloped sector
//	(III) μ̌−σ̌ ≤ x < μ̌        N(μ̌, σ̌)(x)
//	(IV)  μ̌ ≤ x < μ̂          N(x, σ̌)(x) = 1/(√(2π)σ̌) — the flat plateau
//	(V)   μ̂ ≤ x < μ̂+σ̌       N(μ̂, σ̌)(x)
//	(VI)  μ̂+σ̌ ≤ x < μ̂+σ̂     N(μ̂, x−μ̂)(x)
//	(VII) μ̂+σ̂ ≤ x            N(μ̂, σ̂)(x)
func Hull(mu, sigma Interval, x float64) float64 {
	return math.Exp(LogHull(mu, sigma, x))
}

// LogHull returns ln ˆN_{μ̌,μ̂,σ̌,σ̂}(x). See Hull.
func LogHull(mu, sigma Interval, x float64) float64 {
	switch {
	case x < mu.Lo:
		d := mu.Lo - x // distance to the left μ border
		switch {
		case d > sigma.Hi: // sector (I)
			return LogPDF(mu.Lo, sigma.Hi, x)
		case d > sigma.Lo: // sector (II): maximizing σ equals the distance
			return -0.5*Ln2Pi - 0.5 - math.Log(d)
		default: // sector (III)
			return LogPDF(mu.Lo, sigma.Lo, x)
		}
	case x <= mu.Hi: // sector (IV): some μ coincides with x
		return -0.5*Ln2Pi - math.Log(sigma.Lo)
	default:
		d := x - mu.Hi // distance to the right μ border
		switch {
		case d < sigma.Lo: // sector (V)
			return LogPDF(mu.Hi, sigma.Lo, x)
		case d < sigma.Hi: // sector (VI)
			return -0.5*Ln2Pi - 0.5 - math.Log(d)
		default: // sector (VII)
			return LogPDF(mu.Hi, sigma.Hi, x)
		}
	}
}

// Floor evaluates the lower bound ˇN_{μ̌,μ̂,σ̌,σ̂}(x) of Lemma 3: the pointwise
// minimum over all Gaussians with parameters inside the rectangle. Because
// N(μ,σ)(x) has a single local maximum and no local minimum in (μ,σ), the
// minimum is attained at one of the four corners of the rectangle.
func Floor(mu, sigma Interval, x float64) float64 {
	return math.Exp(LogFloor(mu, sigma, x))
}

// LogFloor returns ln ˇN_{μ̌,μ̂,σ̌,σ̂}(x). See Floor.
func LogFloor(mu, sigma Interval, x float64) float64 {
	// The farther μ border always yields the smaller density for fixed σ,
	// so only the two σ corners of that border need to be tested (the
	// "even easier method" the paper notes after Lemma 3).
	m := mu.Lo
	if x-mu.Lo < mu.Hi-x {
		m = mu.Hi
	}
	a := LogPDF(m, sigma.Lo, x)
	b := LogPDF(m, sigma.Hi, x)
	return math.Min(a, b)
}

// HullTerm decomposes the per-dimension log hull into logarithm-free parts:
// ln ˆN(x) = −½·ln 2π − ln s − ½·z² − (sloped ? ½ : 0), where s is the
// maximizing σ (or the μ-border distance in the sloped sectors (II)/(VI),
// whose hull is 1/(√(2πe)·d)) and z the standardized residual. Multi-
// dimensional hulls multiply the s factors across dimensions and take one
// logarithm of the product instead of d per-dimension logarithms — the
// product trick the hot traversal's node priorities rely on.
func HullTerm(mu, sigma Interval, x float64) (s, z float64, sloped bool) {
	switch {
	case x < mu.Lo:
		d := mu.Lo - x
		switch {
		case d > sigma.Hi: // sector (I)
			return sigma.Hi, (x - mu.Lo) / sigma.Hi, false
		case d > sigma.Lo: // sector (II): maximizing σ equals the distance
			return d, 0, true
		default: // sector (III)
			return sigma.Lo, (x - mu.Lo) / sigma.Lo, false
		}
	case x <= mu.Hi: // sector (IV): some μ coincides with x
		return sigma.Lo, 0, false
	default:
		d := x - mu.Hi
		switch {
		case d < sigma.Lo: // sector (V)
			return sigma.Lo, (x - mu.Hi) / sigma.Lo, false
		case d < sigma.Hi: // sector (VI)
			return d, 0, true
		default: // sector (VII)
			return sigma.Hi, (x - mu.Hi) / sigma.Hi, false
		}
	}
}

// FloorTerm decomposes the per-dimension log floor the same way:
// ln ˇN(x) = −½·ln 2π − ln s − ½·z². The minimizing corner sits on the
// farther μ border; between the two σ corners the density is increasing in
// σ below the residual distance and decreasing above it, so the corner is
// determined without a logarithm whenever the whole σ interval lies on one
// side of the distance, and by an explicit two-corner comparison otherwise.
func FloorTerm(mu, sigma Interval, x float64) (s, z float64) {
	m := mu.Lo
	if x-mu.Lo < mu.Hi-x {
		m = mu.Hi
	}
	d := x - m
	if d < 0 {
		d = -d
	}
	switch {
	case sigma.Hi <= d: // density increasing in σ on the whole interval
		return sigma.Lo, (x - m) / sigma.Lo
	case sigma.Lo >= d: // density decreasing in σ on the whole interval
		return sigma.Hi, (x - m) / sigma.Hi
	default: // the in-σ maximum is interior; the minimum is one of the corners
		za := (x - m) / sigma.Lo
		zb := (x - m) / sigma.Hi
		if -math.Log(sigma.Lo)-0.5*za*za <= -math.Log(sigma.Hi)-0.5*zb*zb {
			return sigma.Lo, za
		}
		return sigma.Hi, zb
	}
}

// HullIntegral returns ∫ ˆN_{μ̌,μ̂,σ̌,σ̂}(x) dx over the whole real line: the
// access-probability surrogate minimized by the Gauss-tree split strategy.
// Summing the seven sectors in closed form, the Gaussian tail sectors (I),
// (III), (V), (VII) jointly contribute exactly 1, leaving
//
//	∫ˆN = 1 + (μ̂−μ̌)/(√(2π)·σ̌) + 2·ln(σ̂/σ̌)/√(2πe).
//
// The integral is always ≥ 1, so per-dimension integrals can be multiplied
// to form a meaningful multivariate access-probability surrogate.
func HullIntegral(mu, sigma Interval) float64 {
	return 1 +
		mu.Width()*InvSqrt2Pi/sigma.Lo +
		2*math.Log(sigma.Hi/sigma.Lo)*InvSqrt2PiE
}

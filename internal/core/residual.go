package core

import "math"

// Standard consensus-ADMM diagnostics and the classic extensions built on
// them (Boyd et al. §3.3–3.4): primal/dual residual norms, residual-based
// early stopping, and residual-balancing adaptive penalty (the idea behind
// the AADMM line of work the paper cites as related).

// zSummary is a full-dimension consensus summary — the engine's z̄ or
// z_prev — and supp, the ascending coordinates off which z is +0.
// assembleInto keeps supp; after a dense write (a snapshot restore), rescan.
type zSummary struct {
	z    []float64
	supp []int32
}

// rescan rebuilds supp: every coordinate whose bits are not +0's.
func (s *zSummary) rescan() {
	s.supp = s.supp[:0]
	for j, v := range s.z {
		if math.Float64bits(v) != 0 {
			s.supp = append(s.supp, int32(j))
		}
	}
}

// residuals computes the consensus residual norms at the end of an
// iteration:
//
//	‖r‖ = sqrt(Σᵢ ‖xᵢ − z‖²)      (primal: disagreement with consensus)
//	‖s‖ = ρ·√N·‖z − z_prev‖        (dual: consensus movement)
//
// Off-active coordinates satisfy xᵢⱼ = zⱼ exactly (see worker), so the
// primal sum only runs over each worker's active set — but z may have
// support outside a worker's active set, where xᵢⱼ = zⱼ(previous); those
// coordinates contribute (z_prev − z)ⱼ² per worker, amortized into the
// dual-style correction below. For the penalty controller the active-set
// approximation is standard and sufficient.
//
// ‖z − z_prev‖² runs over the ascending union of both supports: off it each
// term is (+0 − +0)² = +0, and adding +0 leaves a sum of squares (never −0)
// unchanged bit for bit.
func residuals(ws []*worker, z, zPrev *zSummary, rho float64) (primal, dual float64) {
	var rsq float64
	for _, w := range ws {
		for i, c := range w.active {
			d := w.xA[i] - z.z[c]
			rsq += d * d
		}
	}
	primal = math.Sqrt(rsq)
	var dsq float64
	a, b := z.supp, zPrev.supp
	for len(a) > 0 || len(b) > 0 {
		var j int32
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			j, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			j, b = b[0], b[1:]
		default:
			j, a, b = a[0], a[1:], b[1:]
		}
		d := z.z[j] - zPrev.z[j]
		dsq += d * d
	}
	dual = rho * math.Sqrt(float64(len(ws))) * math.Sqrt(dsq)
	return primal, dual
}

// Residual balancing's parameters: the dominance ratio that triggers an
// adaptation and the factor ρ moves by.
const (
	rhoMu  = 10
	rhoTau = 2
)

// adaptRho applies residual balancing: when the primal residual dominates
// the dual by more than rhoMu, the penalty is too weak (consensus drifting)
// — multiply by rhoTau; in the opposite regime divide. Returns the new ρ.
func adaptRho(rho, primal, dual float64) float64 {
	switch {
	case primal > rhoMu*dual:
		return rho * rhoTau
	case dual > rhoMu*primal:
		return rho / rhoTau
	default:
		return rho
	}
}

// setRho propagates a penalty change into every worker's subproblem.
// In the unscaled dual form the y iterates need no rescaling; only the
// objective's quadratic coupling changes.
func setRho(ws []*worker, rho float64) {
	for _, w := range ws {
		w.obj.Rho = rho
	}
}

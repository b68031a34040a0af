package safety

import (
	"fmt"
)

// ASIL is an ISO 26262 Automotive Safety Integrity Level.
type ASIL uint8

const (
	// QM means no ASIL target is met (quality management only).
	QM ASIL = iota
	// ASILA is the lowest integrity level.
	ASILA
	// ASILB requires SPFM >= 90%, LFM >= 60%, PMHF < 1e-7/h.
	ASILB
	// ASILC requires SPFM >= 97%, LFM >= 80%, PMHF < 1e-7/h.
	ASILC
	// ASILD requires SPFM >= 99%, LFM >= 90%, PMHF < 1e-8/h.
	ASILD
)

// String names the level.
func (a ASIL) String() string {
	switch a {
	case QM:
		return "QM"
	case ASILA:
		return "ASIL-A"
	case ASILB:
		return "ASIL-B"
	case ASILC:
		return "ASIL-C"
	case ASILD:
		return "ASIL-D"
	default:
		return fmt.Sprintf("ASIL(%d)", uint8(a))
	}
}

// FailureMode is one row of an FMEDA worksheet: a component failure
// mode with its rate and how the architecture handles it.
type FailureMode struct {
	// Component and Mode identify the row.
	Component string
	Mode      string
	// RateFIT is the failure rate in FIT (1 FIT = 1e-9 failures/hour).
	RateFIT float64
	// SafeFraction is the fraction of these failures that cannot
	// violate the safety goal by construction.
	SafeFraction float64
	// DiagnosticCoverage is the fraction of the dangerous remainder
	// that a safety mechanism detects and controls (λ_DD).
	DiagnosticCoverage float64
	// LatentCoverage is the fraction of detected-dangerous faults
	// whose presence is also revealed to the driver/maintenance
	// (multiple-point fault detection), entering the latent metric.
	LatentCoverage float64
}

// Validate checks fractions and rate.
func (m FailureMode) Validate() error {
	if m.RateFIT < 0 {
		return fmt.Errorf("safety: %s/%s negative rate", m.Component, m.Mode)
	}
	for _, f := range []struct {
		v    float64
		name string
	}{
		{m.SafeFraction, "safe fraction"},
		{m.DiagnosticCoverage, "diagnostic coverage"},
		{m.LatentCoverage, "latent coverage"},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("safety: %s/%s %s %g outside [0,1]", m.Component, m.Mode, f.name, f.v)
		}
	}
	return nil
}

// FMEDAResult carries the ISO 26262 hardware architectural metrics.
// Simplifications versus the full standard (documented per DESIGN.md):
// residual faults are the undetected dangerous ones (λ_RF = λ_DU);
// PMHF is approximated by the residual rate; the latent metric counts
// detected-but-unrevealed dangerous faults as latent.
type FMEDAResult struct {
	TotalFIT               float64
	SafeFIT                float64
	DangerousDetectedFIT   float64
	DangerousUndetectedFIT float64
	LatentFIT              float64

	// SPFM is the single-point fault metric:
	// 1 - λ_DU / λ_total.
	SPFM float64
	// LFM is the latent fault metric:
	// 1 - λ_latent / (λ_total - λ_DU).
	LFM float64
	// PMHF is the probabilistic metric for random hardware failures in
	// failures per hour (≈ λ_DU converted from FIT).
	PMHF float64
}

// EvaluateFMEDA folds the worksheet into the architectural metrics.
func EvaluateFMEDA(modes []FailureMode) (*FMEDAResult, error) {
	r := &FMEDAResult{}
	for _, m := range modes {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		r.TotalFIT += m.RateFIT
		safe := m.RateFIT * m.SafeFraction
		dang := m.RateFIT - safe
		dd := dang * m.DiagnosticCoverage
		du := dang - dd
		latent := dd * (1 - m.LatentCoverage)
		r.SafeFIT += safe
		r.DangerousDetectedFIT += dd
		r.DangerousUndetectedFIT += du
		r.LatentFIT += latent
	}
	if r.TotalFIT > 0 {
		r.SPFM = 1 - r.DangerousUndetectedFIT/r.TotalFIT
		if denom := r.TotalFIT - r.DangerousUndetectedFIT; denom > 0 {
			r.LFM = 1 - r.LatentFIT/denom
		} else {
			r.LFM = 1
		}
	} else {
		r.SPFM, r.LFM = 1, 1
	}
	r.PMHF = r.DangerousUndetectedFIT * 1e-9
	return r, nil
}

// ASIL determines the highest integrity level whose SPFM/LFM/PMHF
// targets the result meets.
func (r *FMEDAResult) ASIL() ASIL {
	switch {
	case r.SPFM >= 0.99 && r.LFM >= 0.90 && r.PMHF < 1e-8:
		return ASILD
	case r.SPFM >= 0.97 && r.LFM >= 0.80 && r.PMHF < 1e-7:
		return ASILC
	case r.SPFM >= 0.90 && r.LFM >= 0.60 && r.PMHF < 1e-7:
		return ASILB
	case r.PMHF < 1e-6:
		return ASILA
	default:
		return QM
	}
}

// String renders the worksheet summary.
func (r *FMEDAResult) String() string {
	return fmt.Sprintf("total=%.1f FIT safe=%.1f DD=%.1f DU=%.1f latent=%.1f SPFM=%.2f%% LFM=%.2f%% PMHF=%.3g/h -> %s",
		r.TotalFIT, r.SafeFIT, r.DangerousDetectedFIT, r.DangerousUndetectedFIT, r.LatentFIT,
		r.SPFM*100, r.LFM*100, r.PMHF, r.ASIL())
}

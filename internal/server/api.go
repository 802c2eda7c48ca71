package server

import (
	"fmt"
	"time"

	"grammarviz"
	"grammarviz/internal/modes"
	"grammarviz/internal/timeseries"
)

// Modes accepted by POST /v1/analyze, aliased from internal/modes — the
// single source of truth shared with cmd/gva and the exhaustivemode lint
// pass.
const (
	ModeRRA        = modes.RRA        // exact variable-length discord search
	ModeBestEffort = modes.BestEffort // RRA degrading at the deadline (Partial/Fallback)
	ModeDensity    = modes.Density    // rule-density anomalies (distance-free)
	ModeHOTSAX     = modes.HOTSAX     // fixed-length HOTSAX baseline
	ModeEnsemble   = modes.Ensemble   // parameter-free ensemble grammar induction
)

// maxEnsembleMembers caps the member count one request may ask for: every
// member is a full induction, so the cap bounds the work a single request
// can cost regardless of its admission weight.
const maxEnsembleMembers = 128

// AnalyzeRequest is the JSON body of POST /v1/analyze.
type AnalyzeRequest struct {
	// Series is the univariate time series to analyze (required). A null
	// element is a missing value: it decodes as NaN, which is rejected
	// unless Interpolate is set.
	Series []float64 `json:"series"`
	// Mode selects the detector: rra | besteffort | density | hotsax.
	// Empty selects besteffort — the mode built for a service, where a
	// degraded answer beats a deadline error.
	Mode string `json:"mode"`

	// Tenant names the cost-budget bucket this request is charged to.
	// Empty falls back to the X-Tenant header, then to "default" — so
	// anonymous traffic shares one bucket instead of dodging admission.
	Tenant string `json:"tenant,omitempty"`

	// Window, PAA and Alphabet are the SAX discretization parameters.
	// Window 0 auto-selects all three from the data (grammar modes only).
	Window   int `json:"window"`
	PAA      int `json:"paa"`
	Alphabet int `json:"alphabet"`

	// K is the number of discords to report (discord modes; default 3).
	K int `json:"k"`
	// Members is the ensemble-mode member count: how many parameterizations
	// the sampler draws (0 selects the library default of 20, capped at
	// 128). Ignored by the other modes.
	Members int `json:"members"`
	// Threshold is the density-mode cutoff; nil or negative selects the
	// global-minima report.
	Threshold *int `json:"threshold,omitempty"`
	// MinLen drops density anomalies shorter than this many points.
	MinLen int `json:"min_len"`

	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`

	// TimeoutMS is the per-request wall-clock budget in milliseconds;
	// 0 selects the server default. The effective budget is capped at the
	// server maximum. In besteffort mode the deadline degrades the answer
	// (partial/fallback) instead of failing it.
	TimeoutMS int64 `json:"timeout_ms"`

	// Interpolate fills missing (null) values by linear interpolation
	// instead of rejecting the series.
	Interpolate bool `json:"interpolate"`
}

// AnalyzeResponse is the JSON body of a successful analysis.
type AnalyzeResponse struct {
	Mode      string `json:"mode"`
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	Window    int    `json:"window"`
	PAA       int    `json:"paa"`
	Alphabet  int    `json:"alphabet"`

	// Partial/Fallback mirror DiscordResult: a deadline cut the search
	// short (partial) or not even one round finished and the density
	// minima stood in (fallback).
	Partial  bool `json:"partial"`
	Fallback bool `json:"fallback"`
	// CacheHit reports that the detector (grammar, density curve) was
	// served from the LRU cache, skipping discretization and induction.
	CacheHit bool `json:"cache_hit"`

	DistanceCalls int64   `json:"distance_calls"`
	ElapsedMS     float64 `json:"elapsed_ms"`

	Discords  []grammarviz.Discord `json:"discords,omitempty"`
	Anomalies []grammarviz.Anomaly `json:"anomalies,omitempty"`

	// Ensemble carries the ensemble-mode result: the fused score and
	// agreement curves plus the sampled member parameterizations. Byte-
	// identical to what grammarviz.EnsembleDensity returns for the same
	// (series, members, seed) — the serving layer only caches, it never
	// changes scores.
	Ensemble *grammarviz.EnsembleResult `json:"ensemble,omitempty"`
	// EnsembleAnomalies are the fused curve's thresholded minima intervals
	// (fraction 0.3), the ensemble counterpart of Anomalies.
	EnsembleAnomalies []grammarviz.Interval `json:"ensemble_anomalies,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// validate rejects malformed requests before any work is admitted, so a
// bad request never occupies an analysis slot.
func (r *AnalyzeRequest) validate(maxSeries int) error {
	if len(r.Series) == 0 {
		return fmt.Errorf("series is required and must be non-empty")
	}
	if len(r.Tenant) > 128 {
		return fmt.Errorf("tenant name exceeds 128 bytes")
	}
	if maxSeries > 0 && len(r.Series) > maxSeries {
		return fmt.Errorf("series has %d points, server cap is %d", len(r.Series), maxSeries)
	}
	if !r.Interpolate {
		if err := timeseries.ValidateFinite(r.Series); err != nil {
			return fmt.Errorf("series: %w (set interpolate to fill missing values)", err)
		}
	}
	//gvad:modes Serving
	switch r.Mode {
	case ModeRRA, ModeBestEffort, ModeDensity, ModeHOTSAX, ModeEnsemble:
	case "":
		r.Mode = modes.Default
	default:
		return fmt.Errorf("unknown mode %q (want %s)", r.Mode, modes.OneOf(modes.Serving))
	}
	if r.Members < 0 {
		return fmt.Errorf("members must be >= 0 (0 selects the default), got %d", r.Members)
	}
	if r.Members > maxEnsembleMembers {
		return fmt.Errorf("members (%d) exceeds the server cap of %d", r.Members, maxEnsembleMembers)
	}
	if r.Window < 0 {
		return fmt.Errorf("window must be >= 0 (0 auto-selects), got %d", r.Window)
	}
	if r.Window == 0 && r.Mode == ModeHOTSAX {
		return fmt.Errorf("hotsax mode needs an explicit window (auto-selection covers grammar modes only)")
	}
	if r.Window > 0 {
		if r.PAA < 1 {
			return fmt.Errorf("paa must be >= 1, got %d", r.PAA)
		}
		if r.PAA > r.Window {
			return fmt.Errorf("paa (%d) must not exceed window (%d)", r.PAA, r.Window)
		}
		if r.Alphabet < 2 || r.Alphabet > 26 {
			return fmt.Errorf("alphabet must be in 2..26, got %d", r.Alphabet)
		}
		if r.Window > len(r.Series) {
			return fmt.Errorf("window (%d) exceeds series length (%d)", r.Window, len(r.Series))
		}
	}
	if r.K == 0 {
		r.K = 3
	}
	if r.K < 1 {
		return fmt.Errorf("k must be >= 1, got %d", r.K)
	}
	if r.MinLen < 0 {
		return fmt.Errorf("min_len must be >= 0, got %d", r.MinLen)
	}
	if r.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", r.Workers)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", r.TimeoutMS)
	}
	return nil
}

// budget resolves the request's effective wall-clock budget against the
// server defaults: the request's own timeout, else the default, both
// capped at the maximum. Zero means unbounded.
func (r *AnalyzeRequest) budget(def, max time.Duration) time.Duration {
	d := time.Duration(r.TimeoutMS) * time.Millisecond
	if d == 0 {
		d = def
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d
}

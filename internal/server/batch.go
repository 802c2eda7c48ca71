package server

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"grammarviz/internal/worker"
)

// BatchRequest is the JSON body of POST /v1/analyze/batch: a request set
// analyzed as one round trip. Items are admitted and charged
// individually, so a batch from one tenant still competes fairly with
// everyone else's traffic.
type BatchRequest struct {
	// Tenant is the budget bucket for every item that does not name its
	// own (item tenant > batch tenant > X-Tenant header > "default").
	Tenant string `json:"tenant,omitempty"`
	// Requests are the analyses to run; each succeeds or fails on its own.
	Requests []AnalyzeRequest `json:"requests"`
}

// BatchItemResult is one item's outcome, in request order. Exactly one of
// Response and Error is set; Status is the HTTP status the item would
// have received from /v1/analyze.
type BatchItemResult struct {
	Index    int              `json:"index"`
	Status   int              `json:"status"`
	Response *AnalyzeResponse `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// BatchResponse is the JSON body of a batch reply. The HTTP status is 200
// whenever the batch itself was well-formed: per-item failure lives in
// Results, and a degraded item never fails its siblings.
type BatchResponse struct {
	Results   []BatchItemResult `json:"results"`
	OK        int               `json:"ok"`
	Failed    int               `json:"failed"`
	ElapsedMS float64           `json:"elapsed_ms"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var req BatchRequest
	if status, err := s.decodeRequest(w, r, &req); err != nil {
		s.requests.With("unknown", "invalid").Inc()
		writeError(w, status, fmt.Errorf("decode batch request: %w", err))
		return
	}
	if len(req.Requests) == 0 {
		s.requests.With("unknown", "invalid").Inc()
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch requires at least one request"))
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		s.requests.With("unknown", "invalid").Inc()
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d requests, server cap is %d", len(req.Requests), s.cfg.MaxBatch))
		return
	}
	batchTenant := resolveTenant(r, req.Tenant)

	start := time.Now()
	results := make([]BatchItemResult, len(req.Requests))
	// Fan the items across a bounded worker pool: admission still governs
	// how many analyses actually run, but capping the fan-out keeps one
	// giant batch from parking MaxBatch goroutines in the wait queue.
	workers := min(len(req.Requests), s.cfg.MaxConcurrent)
	var next atomic.Int64
	g, gctx := worker.WithContext(r.Context())
	for range workers {
		g.Go(func() error {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Requests) || gctx.Err() != nil {
					return nil
				}
				results[i] = s.batchItem(gctx, &req.Requests[i], batchTenant, i)
			}
		})
	}
	// Item failures are reported in-place, never via the group error; a
	// non-nil Wait means the batch context itself ended.
	if err := g.Wait(); err != nil && gctx.Err() != nil {
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("batch cancelled: %w", gctx.Err()))
		return
	}

	resp := BatchResponse{Results: results}
	for _, item := range results {
		if item.Error == "" {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, &resp)
}

// batchItem validates and serves one batch element, converting its
// outcome into the per-item result shape. It never returns an error: a
// failing item degrades itself only.
func (s *Server) batchItem(ctx context.Context, item *AnalyzeRequest, batchTenant string, idx int) BatchItemResult {
	if err := item.validate(s.cfg.MaxSeriesLen); err != nil {
		s.requests.With(modeLabel(item.Mode), "invalid").Inc()
		return BatchItemResult{Index: idx, Status: http.StatusBadRequest, Error: err.Error()}
	}
	tenant := batchTenant
	if item.Tenant != "" {
		tenant = item.Tenant
	}
	resp, status, err := s.serveOne(ctx, item, tenant)
	if err != nil {
		return BatchItemResult{Index: idx, Status: status, Error: err.Error()}
	}
	return BatchItemResult{Index: idx, Status: status, Response: resp}
}

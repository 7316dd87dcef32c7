package client

// The verb surface and its wire types. The types are the daemon's JSON
// exactly: aliases of internal/wire, which internal/serve aliases too.
// Importing this package pulls in nothing but the standard library
// (internal/wire and internal/obs, the internal imports, are themselves
// stdlib-only), which is what makes it embeddable in tools that never link
// the simulator.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Shape is a collective shape as the daemon's wire format spells it:
// kind and algorithm names are the same strings the CLI flags take, and
// zero-valued fields mean auto-selection or not-applicable.
type Shape = wire.Shape

// FabricStats is the cost-metrics slice of a run report.
type FabricStats = wire.Stats

// Report is the result of a run: measured cycles, the model estimate,
// the root vector and the fabric cost metrics. Predicted is nil when the
// daemon's model has no finite estimate for the shape (null on the wire).
type Report = wire.Report

// Job is one poll of an async submit: pending, done (Result set) or
// failed (Error set).
type Job = wire.Job

// WarmResult reports what a remote warm did: how many shapes were
// freshly materialised into the daemon's cache, how many were already
// resident, and per-shape errors for the ones that failed.
type WarmResult = wire.WarmResult

// The request and response envelopes, as internal/wire spells them.
type (
	runRequest     = wire.RunRequest
	submitResponse = wire.SubmitResponse
	errorResponse  = wire.ErrorResponse
	warmRequest    = wire.WarmRequest
)

const (
	tenantHeader      = "X-WSE-Tenant"
	deadlineHeader    = "X-WSE-Deadline-Ms"
	idempotencyHeader = "X-WSE-Idempotency-Key"
)

// Run executes a collective synchronously and returns its report.
// Retryable: run is a pure function of the shape and inputs.
func (c *Client) Run(ctx context.Context, sh Shape, inputs [][]float32) (*Report, error) {
	payload, err := runPayload(sh, inputs)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := c.do(ctx, "POST", "/v1/run", payload, nil, true, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// runPayload encodes the body of run, submit, predict and bound.
func runPayload(sh Shape, inputs [][]float32) ([]byte, error) {
	payload, err := wire.AppendRunRequest(nil, &runRequest{Shape: sh, Inputs: inputs})
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	return payload, nil
}

// Predict returns the daemon's analytical cycle estimate for a shape,
// NaN when the model has no finite one.
func (c *Client) Predict(ctx context.Context, sh Shape) (float64, error) {
	return c.estimate(ctx, "/v1/predict", "predicted_cycles", sh)
}

// Bound returns the daemon's runtime lower bound for a shape, NaN when
// there is no finite one.
func (c *Client) Bound(ctx context.Context, sh Shape) (float64, error) {
	return c.estimate(ctx, "/v1/bound", "bound_cycles", sh)
}

func (c *Client) estimate(ctx context.Context, path, field string, sh Shape) (float64, error) {
	payload, err := runPayload(sh, nil)
	if err != nil {
		return 0, err
	}
	var out map[string]*float64
	if err := c.do(ctx, "POST", path, payload, nil, true, &out); err != nil {
		return 0, err
	}
	if v := out[field]; v != nil {
		return *v, nil
	}
	return math.NaN(), nil // null on the wire: JSON cannot spell ±Inf or NaN
}

// Submit enqueues an async run and returns the job id to poll. A
// non-empty key makes the call idempotent — the daemon dedupes
// resubmissions carrying the same key per tenant — and therefore
// retryable; with an empty key the client sends exactly one attempt,
// because retrying an unkeyed submit could enqueue the work twice.
func (c *Client) Submit(ctx context.Context, sh Shape, inputs [][]float32, key string) (string, error) {
	payload, err := runPayload(sh, inputs)
	if err != nil {
		return "", err
	}
	var hdr map[string]string
	if key != "" {
		hdr = map[string]string{idempotencyHeader: key}
	}
	var resp submitResponse
	if err := c.do(ctx, "POST", "/v1/submit", payload, hdr, key != "", &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Job polls an async job once. Retryable: polling is a read.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, "GET", "/v1/jobs/"+id, nil, nil, true, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Wait polls a job until it resolves (or ctx expires), sleeping
// interval between polls (default 50ms). A failed job's server-side
// error comes back as an error with the job's message.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (*Report, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch j.State {
		case "done":
			return j.Result, nil
		case "failed":
			return nil, fmt.Errorf("client: job %s failed: %s", id, j.Error)
		}
		if err := c.sleep(ctx, interval); err != nil {
			return nil, err
		}
	}
}

// Warm asks the daemon to pre-materialise plans for the given shapes
// through its plan cache's miss (POST /v1/warm), so a daemon can be
// pre-heated over the wire without filesystem access to its plan store.
// Retryable: warming is idempotent — an already-resident plan is a
// no-op.
func (c *Client) Warm(ctx context.Context, shapes []Shape) (*WarmResult, error) {
	payload, err := json.Marshal(warmRequest{Shapes: shapes})
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	var res WarmResult
	if err := c.do(ctx, "POST", "/v1/warm", payload, nil, true, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Healthy reports whether the daemon answers /healthz with 200. One
// attempt, no retries — health checks are themselves the probe.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, "GET", c.cfg.BaseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// do is the retry core every verb funnels through: breaker gate, one
// HTTP attempt, outcome classification, backoff, repeat. payload is the
// request body, encoded once by the caller (nil for none) and replayed per
// attempt; out receives the decoded 2xx JSON.
func (c *Client) do(ctx context.Context, method, path string, payload []byte, hdr map[string]string, idempotent bool, out any) error {
	attempts := 1
	if idempotent {
		attempts = c.cfg.MaxAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			wait := c.backoff(attempt - 1)
			if ra := retryAfter(lastErr); ra > 0 {
				wait = ra // the server named its price; pay exactly that
			}
			if err := c.sleep(ctx, wait); err != nil {
				return fmt.Errorf("client: giving up after %d attempts: %w (last error: %v)", attempt, err, lastErr)
			}
			c.retries.Add(1)
		}
		if err := c.breakerAllow(); err != nil {
			c.fastFails.Add(1)
			lastErr = err
			continue // cooldown may elapse during the next backoff
		}
		err := c.attempt(ctx, method, path, payload, hdr, out)
		if err == nil {
			c.breakerReport(true)
			return nil
		}
		if ctx.Err() != nil {
			// The caller's deadline, not the service, killed the attempt:
			// don't charge the breaker, don't keep trying.
			return fmt.Errorf("client: %w (last error: %v)", ctx.Err(), err)
		}
		c.breakerReport(!breakerFailure(err))
		lastErr = err
		if !retryable(err) {
			return err
		}
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", attempts, lastErr)
}

// attempt sends one HTTP request and classifies the response. A non-2xx
// status becomes an *APIError carrying the server's JSON error message
// and any Retry-After hint.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, hdr map[string]string, out any) error {
	c.attempts.Add(1)
	actx := ctx
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	// One span per wire attempt (retries each get their own), and the
	// traceparent header carries the caller's trace onto the server so
	// its root span joins this trace instead of opening a new one.
	sctx, span := obs.Start(ctx, "client "+method)
	span.SetAttr("path", path)
	obs.InjectHeader(sctx, req.Header)
	defer span.End()
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.cfg.Tenant != "" {
		req.Header.Set(tenantHeader, c.cfg.Tenant)
	}
	// Forward the effective deadline so the server sheds work this
	// client will have abandoned by the time it finishes.
	if dl, ok := actx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(deadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		err = fmt.Errorf("client: %s %s: %w", method, path, err)
		span.SetError(err)
		return err
	}
	defer resp.Body.Close()
	span.SetAttr("status", resp.StatusCode)
	if resp.StatusCode >= 500 {
		span.SetError(fmt.Errorf("http %d", resp.StatusCode))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		ae := &APIError{Status: resp.StatusCode}
		var er errorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			ae.Msg = er.Error
		} else {
			ae.Msg = string(data)
		}
		if secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
		return ae
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decode response: %w", err)
		}
	}
	return nil
}

package serve

// The fleet surface: the plan-blob endpoint that lets peers resolve
// plans from this daemon by canonical key, and the remote-warm endpoint
// that pre-heats the daemon's cache over the wire.
//
//	GET  /v1/plans/{key}  -> encoded plan blob (planstore codec frame)
//	POST /v1/warm         {"shapes": [{...}, ...]} -> per-shape outcome
//
// The blob endpoint serves only what the daemon already holds (cache or
// attached store) — it never compiles, so a peer cannot spend this
// daemon's CPU by asking; 404 is the miss a resolver chain's peer stage
// treats as "healthy but cold". Warm goes the other way: each shape is
// materialised through the daemon's own resolver chain, so fleets are
// pre-heated without filesystem access to the plan store.

import (
	"errors"
	"net/http"

	wse "repro"
)

func (s *Server) handlePlanBlob(w http.ResponseWriter, r *http.Request) {
	blob, err := s.cfg.Session.PlanBlob(r.PathValue("key"))
	switch {
	case errors.Is(err, wse.ErrPlanNotFound):
		s.writeError(w, http.StatusNotFound, err.Error())
	case err != nil:
		s.writeVerbError(w, err)
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(blob)
	}
}

// handleWarm materialises each listed shape through the session's
// resolver chain. Partial failure is the normal case for a long list,
// so the response is always 200 with per-shape accounting; a shape that
// fails to warm is reported and skipped, never aborting the rest.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	var req warmRequest
	if !s.decode(w, r, &req) {
		return
	}
	var resp warmResponse
	for _, sw := range req.Shapes {
		sh, err := ShapeOf(sw)
		if err == nil {
			var fetched bool
			if fetched, err = s.cfg.Session.Prefetch(r.Context(), sh); err == nil {
				if fetched {
					resp.Warmed++
				} else {
					resp.Resident++
				}
				continue
			}
		}
		resp.Failed++
		resp.Errors = append(resp.Errors, err.Error())
	}
	writeJSON(w, http.StatusOK, resp)
}

package serve

// The remote-warm endpoint pre-heats the daemon's plan cache over the wire:
//
//	POST /v1/warm  {"shapes": [{...}, ...]} -> per-shape outcome
//
// Each shape is materialised through the session's resolver chain, so a
// daemon is warmed without filesystem access to its plan store.

import "net/http"

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

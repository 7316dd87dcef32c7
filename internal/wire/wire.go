// Package wire holds the JSON shapes the daemon and its clients exchange,
// spelled once: internal/serve and client both alias these types, so the
// two sides of the wire cannot drift. It imports nothing but the standard
// library, which keeps the client embeddable in tools that never link the
// simulator.
package wire

// Shape is a collective shape as it appears on the wire. Kind is either
// name of a collective kind ("reduce1d" or "reduce", case ignored), the
// algorithms are the strings the CLI flags take, and zero-valued fields may
// be omitted: an empty algorithm selects auto-selection exactly as the CLI
// flag defaults do, an empty op means sum.
type Shape struct {
	Kind   string `json:"kind"`
	Alg    string `json:"alg,omitempty"`
	Alg2D  string `json:"alg2d,omitempty"`
	P      int    `json:"p,omitempty"`
	Width  int    `json:"width,omitempty"`
	Height int    `json:"height,omitempty"`
	B      int    `json:"b"`
	Op     string `json:"op,omitempty"`
}

// Stats is the fabric cost-metrics slice of a report.
type Stats struct {
	Hops        int64 `json:"hops"`
	RampMoves   int64 `json:"ramp_moves"`
	MaxReceived int64 `json:"max_received"`
	MaxQueueLen int   `json:"max_queue_len"`
	Noops       int64 `json:"noops,omitempty"`
	Steps       int64 `json:"steps,omitempty"`
}

// Report is the result of a run as it appears on the wire: measured
// cycles, the model estimate, the root vector and the cost metrics. The
// per-PE maps stay server-side — they are a debugging surface, and
// shipping W×H vectors per request would drown the result that matters.
// Predicted is null when the model has no finite estimate (JSON has no
// spelling for ±Inf or NaN): the measured half of the report still travels.
type Report struct {
	Cycles    int64    `json:"cycles"`
	Predicted *float64 `json:"predicted"`
	Root      Vector   `json:"root,omitempty"`
	Stats     Stats    `json:"stats"`
}

// RunRequest is the body of /v1/run and /v1/submit, and — without inputs —
// of /v1/predict and /v1/bound.
type RunRequest struct {
	Shape  Shape   `json:"shape"`
	Inputs Vectors `json:"inputs,omitempty"`
}

// SubmitResponse answers an accepted /v1/submit: the job's id and where to
// poll it.
type SubmitResponse struct {
	ID  string `json:"id"`
	URL string `json:"status_url"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Job is one poll of an async submit (GET /v1/jobs/{id}): State is
// pending, done (Result set) or failed (Error set).
type Job struct {
	ID     string  `json:"id"`
	State  string  `json:"state"`
	Result *Report `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// WarmRequest is the body of /v1/warm: the shapes to materialise.
type WarmRequest struct {
	Shapes []Shape `json:"shapes"`
}

// WarmResult answers /v1/warm, always with 200: how many shapes were
// freshly fetched or compiled into the daemon's cache, how many were
// already resident (or coalesced), and per-shape errors for the ones that
// failed.
type WarmResult struct {
	Warmed   int      `json:"warmed"`
	Resident int      `json:"resident"`
	Failed   int      `json:"failed"`
	Errors   []string `json:"errors,omitempty"`
}

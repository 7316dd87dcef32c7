package serve

// The daemon's JSON wire format. Shapes travel as the same strings the
// CLI flags use (kind names are the plan-key kind strings, so a wire
// shape round-trips through the plan cache and store unchanged), vectors
// as JSON arrays of numbers. float32 values round-trip exactly through
// JSON's float64 numbers, which is what lets the acceptance check
// compare wire results bit for bit against in-process runs.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	wse "repro"
)

// ShapeWire is a wse.Shape as it appears on the wire. Zero-valued fields
// may be omitted; an empty algorithm selects auto-selection exactly as
// the CLI flag defaults do.
type ShapeWire struct {
	Kind   string `json:"kind"`
	Alg    string `json:"alg,omitempty"`
	Alg2D  string `json:"alg2d,omitempty"`
	P      int    `json:"p,omitempty"`
	Width  int    `json:"width,omitempty"`
	Height int    `json:"height,omitempty"`
	B      int    `json:"b"`
	Op     string `json:"op,omitempty"`
}

// Shape resolves the wire spelling into a wse.Shape. Failures wrap
// wse.ErrBadShape so the transport maps them to 400 like any other
// validation error; the full Shape.Validate still runs inside the verbs.
func (sw ShapeWire) Shape() (wse.Shape, error) {
	sh := wse.Shape{
		Kind:   wse.Collective(sw.Kind),
		Alg:    wse.Algorithm(sw.Alg),
		Alg2D:  wse.Algorithm2D(sw.Alg2D),
		P:      sw.P,
		Width:  sw.Width,
		Height: sw.Height,
		B:      sw.B,
	}
	if sw.Alg == "" {
		sh.Alg = wse.Auto
	}
	if sw.Alg2D == "" {
		sh.Alg2D = wse.Auto2D
	}
	switch strings.ToLower(sw.Op) {
	case "", "sum":
		sh.Op = wse.Sum
	case "max":
		sh.Op = wse.Max
	case "min":
		sh.Op = wse.Min
	default:
		return wse.Shape{}, fmt.Errorf("%w: unknown op %q (sum, max, min)", wse.ErrBadShape, sw.Op)
	}
	return sh, nil
}

// StatsWire is the fabric cost metrics slice of a report.
type StatsWire struct {
	Hops        int64 `json:"hops"`
	RampMoves   int64 `json:"ramp_moves"`
	MaxReceived int64 `json:"max_received"`
	MaxQueueLen int   `json:"max_queue_len"`
	Noops       int64 `json:"noops,omitempty"`
	Steps       int64 `json:"steps,omitempty"`
}

// ReportWire is the result of a run as it appears on the wire: measured
// cycles, the model estimate, the root vector and the cost metrics. The
// per-PE maps stay server-side — they are a debugging surface, and
// shipping W×H vectors per request would drown the result that matters.
// Predicted is null when the model has no finite estimate (JSON has no
// spelling for ±Inf or NaN): the measured half of the report still travels.
type ReportWire struct {
	Cycles    int64     `json:"cycles"`
	Predicted *float64  `json:"predicted"`
	Root      []float32 `json:"root,omitempty"`
	Stats     StatsWire `json:"stats"`
}

func reportWire(rep *wse.Report) ReportWire {
	return ReportWire{
		Cycles:    rep.Cycles,
		Predicted: finiteOrNil(rep.Predicted),
		Root:      rep.Root,
		Stats: StatsWire{
			Hops:        rep.Stats.Hops,
			RampMoves:   rep.Stats.RampMoves,
			MaxReceived: rep.Stats.MaxReceived,
			MaxQueueLen: rep.Stats.MaxQueueLen,
			Noops:       rep.Stats.Noops,
			Steps:       rep.Stats.Steps,
		},
	}
}

// finiteOrNil is how a model estimate goes on the wire: itself, or null.
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// TenantSpec is one parsed tenant of a -tenants flag.
type TenantSpec struct {
	Name string
	Cfg  wse.TenantConfig
}

// ParseTenantClass resolves a priority-class name.
func ParseTenantClass(class string) (wse.Priority, error) {
	switch strings.ToLower(class) {
	case "interactive":
		return wse.Interactive, nil
	case "batch":
		return wse.Batch, nil
	case "background":
		return wse.Background, nil
	}
	return wse.Batch, fmt.Errorf("bad tenant class %q (interactive, batch, background)", class)
}

// ParseTenants parses a comma list of name:class:weight[:maxqueue]
// entries — the same spelling wsecollect serve uses — into the tenant
// set a daemon pre-registers at startup.
func ParseTenants(spec string) ([]TenantSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []TenantSpec
	for _, item := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("bad tenant %q (want name:class:weight[:maxqueue])", item)
		}
		ts := TenantSpec{Name: parts[0]}
		var err error
		if ts.Cfg.Priority, err = ParseTenantClass(parts[1]); err != nil {
			return nil, err
		}
		if ts.Cfg.Weight, err = strconv.Atoi(parts[2]); err != nil || ts.Cfg.Weight < 1 {
			return nil, fmt.Errorf("bad tenant weight %q", parts[2])
		}
		if len(parts) == 4 {
			if ts.Cfg.MaxQueue, err = strconv.Atoi(parts[3]); err != nil || ts.Cfg.MaxQueue < 1 {
				return nil, fmt.Errorf("bad tenant maxqueue %q", parts[3])
			}
		}
		out = append(out, ts)
	}
	return out, nil
}

package serve

// The daemon's JSON wire format. Shapes travel as the same strings the
// CLI flags use (a kind under either of its names, resolved by
// plan.LookupKind; WireShape writes the plan-key kind strings, so a wire
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
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/wire"
)

// The wire types live in internal/wire, shared with the client.
type (
	ShapeWire  = wire.Shape
	StatsWire  = wire.Stats
	ReportWire = wire.Report

	runRequest     = wire.RunRequest
	errorResponse  = wire.ErrorResponse
	submitResponse = wire.SubmitResponse
	jobResponse    = wire.Job
	warmRequest    = wire.WarmRequest
	warmResponse   = wire.WarmResult
)

// WireShape spells a wse.Shape in the daemon's wire format.
func WireShape(sh wse.Shape) ShapeWire {
	return ShapeWire{
		Kind:   string(sh.Kind),
		Alg:    string(sh.Alg),
		Alg2D:  string(sh.Alg2D),
		P:      sh.P,
		Width:  sh.Width,
		Height: sh.Height,
		B:      sh.B,
		Op:     sh.Op.String(),
	}
}

// ShapeOf resolves the wire spelling into a wse.Shape. Failures wrap
// wse.ErrBadShape so the transport maps them to 400 like any other
// validation error; the full Shape.Validate still runs inside the verbs.
func ShapeOf(sw ShapeWire) (wse.Shape, error) {
	ki, ok := plan.LookupKind(sw.Kind)
	if !ok {
		return wse.Shape{}, fmt.Errorf("%w: unknown kind %q", wse.ErrBadShape, sw.Kind)
	}
	sh := wse.Shape{
		Kind:   ki.Kind,
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
	if sw.Op != "" {
		var err error
		if sh.Op, err = fabric.ParseReduceOp(sw.Op); err != nil {
			return wse.Shape{}, fmt.Errorf("%w: %v", wse.ErrBadShape, err)
		}
	}
	return sh, nil
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

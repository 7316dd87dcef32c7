package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fabric"
)

// KeyEncodingVersion tags the textual key form. It only changes when the
// rendering below changes incompatibly; bumping it deliberately orphans
// every stored plan, which is the point — a silent drift in the encoding
// would orphan them accidentally.
const KeyEncodingVersion = 1

// String renders the key in its pinned, versioned textual form — the form
// the plan store's manifest indexes by. Every field of the key appears;
// the thermal rate uses hexadecimal float notation so the rendering is
// exact and locale-free. TestKeyEncodingPinned fails if this drifts, which
// would make stored plans silently miss after an upgrade.
func (k Key) String() string {
	return fmt.Sprintf("k%d;%s;alg=%s;alg2d=%s;p=%d;w=%d;h=%d;b=%d;op=%s;tr=%d;qcap=%d;maxcyc=%d;skew=%d;noop=%s;act=%d;seed=%d;shards=%d",
		KeyEncodingVersion, k.Kind, k.Alg, k.Alg2D, k.P, k.Width, k.Height, k.B, k.Op,
		k.Opt.TR, k.Opt.QueueCap, k.Opt.MaxCycles, k.Opt.ClockSkewMax,
		strconv.FormatFloat(k.Opt.ThermalNoopRate, 'x', -1, 64),
		k.Opt.TaskActivation, k.Opt.Seed, k.Opt.Shards)
}

// ParseKey is the inverse of Key.String: it parses the pinned textual
// form back into a Key. Only the current KeyEncodingVersion parses; a
// version-mismatched key is an error, exactly as a version-mismatched
// blob is.
func ParseKey(s string) (Key, error) {
	var k Key
	fields := strings.Split(s, ";")
	if len(fields) != 17 {
		return k, fmt.Errorf("plan: bad key %q: want 17 fields, got %d", s, len(fields))
	}
	if fields[0] != fmt.Sprintf("k%d", KeyEncodingVersion) {
		return k, fmt.Errorf("plan: key %q has version tag %q, this build speaks k%d", s, fields[0], KeyEncodingVersion)
	}
	k.Kind = Kind(fields[1])
	// The remaining fields are name=value pairs in pinned order; parse by
	// name so a reordering (which String can never produce) is caught.
	want := [...]string{"alg", "alg2d", "p", "w", "h", "b", "op", "tr", "qcap", "maxcyc", "skew", "noop", "act", "seed", "shards"}
	vals := make(map[string]string, len(want))
	for i, name := range want {
		got, val, ok := strings.Cut(fields[2+i], "=")
		if !ok || got != name {
			return k, fmt.Errorf("plan: bad key %q: field %d is %q, want %s=...", s, 2+i, fields[2+i], name)
		}
		vals[name] = val
	}
	k.Alg = core.Pattern(vals["alg"])
	k.Alg2D = core.Pattern2D(vals["alg2d"])
	var err error
	atoi := func(name string) int {
		if err != nil {
			return 0
		}
		var n int
		if n, err = strconv.Atoi(vals[name]); err != nil {
			err = fmt.Errorf("plan: bad key %q: %s=%q: %v", s, name, vals[name], err)
		}
		return n
	}
	k.P, k.Width, k.Height, k.B = atoi("p"), atoi("w"), atoi("h"), atoi("b")
	k.Opt.TR, k.Opt.QueueCap = atoi("tr"), atoi("qcap")
	k.Opt.TaskActivation, k.Opt.Shards = atoi("act"), atoi("shards")
	if err != nil {
		return k, err
	}
	if k.Op, err = fabric.ParseReduceOp(vals["op"]); err != nil {
		return k, fmt.Errorf("plan: bad key %q: %v", s, err)
	}
	if k.Opt.MaxCycles, err = strconv.ParseInt(vals["maxcyc"], 10, 64); err != nil {
		return k, fmt.Errorf("plan: bad key %q: maxcyc=%q", s, vals["maxcyc"])
	}
	if k.Opt.ClockSkewMax, err = strconv.ParseInt(vals["skew"], 10, 64); err != nil {
		return k, fmt.Errorf("plan: bad key %q: skew=%q", s, vals["skew"])
	}
	// ParseFloat accepts the hexadecimal notation String emits — and NaN,
	// which no key may carry: a key that does not equal itself addresses
	// nothing.
	if k.Opt.ThermalNoopRate, err = strconv.ParseFloat(vals["noop"], 64); err != nil || k.Opt.ThermalNoopRate != k.Opt.ThermalNoopRate {
		return k, fmt.Errorf("plan: bad key %q: noop=%q", s, vals["noop"])
	}
	if k.Opt.Seed, err = strconv.ParseUint(vals["seed"], 10, 64); err != nil {
		return k, fmt.Errorf("plan: bad key %q: seed=%q", s, vals["seed"])
	}
	return k, nil
}

// Request reconstructs a compile request from a canonical key, such that
// KeyOf(k.Request()) == k. This is how Session.Warm turns the keys listed
// by a store back into compilable (and therefore loadable) requests.
func (k Key) Request() Request {
	tr := k.Opt.TR
	if tr == 0 {
		// Canonical TR 0 means a literal zero-latency ramp, which the
		// Options field spells as a negative value (0 selects the WSE-2
		// default).
		tr = -1
	}
	return Request{
		Kind:   k.Kind,
		Alg:    k.Alg,
		Alg2D:  k.Alg2D,
		P:      k.P,
		Width:  k.Width,
		Height: k.Height,
		B:      k.B,
		Op:     k.Op,
		Opt: fabric.Options{
			TR:              tr,
			QueueCap:        k.Opt.QueueCap,
			MaxCycles:       k.Opt.MaxCycles,
			ClockSkewMax:    k.Opt.ClockSkewMax,
			ThermalNoopRate: k.Opt.ThermalNoopRate,
			TaskActivation:  k.Opt.TaskActivation,
			Seed:            k.Opt.Seed,
			Shards:          k.Opt.Shards,
		},
	}
}

package main

// The metric tables and the shapes results are printed in. BENCHMARK.json
// at the root of the repository restates these tables for the driver; a
// test keeps the two identical.

import (
	"runtime"
	"runtime/debug"

	wse "repro"
)

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression; unused per layer.
	Bound float64 `json:"bound,omitempty"`
}

// exactBound is the bound of metrics in simulated time. They repeat
// exactly on one commit, and -compare demands equality of them; the
// driver needs a positive share, so it gets one far below any real
// change (one cycle in the smallest workload's sim_cycles is 0.3 %).
const exactBound = 0.001

// endToEnd lists what a user of the system sees, on every workload. The
// timed ones are estimates of the undisturbed cost (see measure.go) and
// still take the widest bound the driver allows: a slow phase of the
// shared host the benchmark was sized on lasts minutes and has moved the
// medians of whole ten-run sequences by a sixth. bench/README.md has the
// measurements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p10_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.15},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: exactBound},
	{Name: "model_err_mean_pct", Unit: "%", Better: "lower", Bound: exactBound},
	{Name: "bound_ratio_geomean", Unit: "ratio", Better: "lower", Bound: exactBound},
}

// exact reports whether the metric is in simulated time, where two runs
// of one commit must agree to the last digit.
func (m metricDef) exact() bool { return m.Bound == exactBound }

func defNamed(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Slices holds readings of the same statistic over parts of the run
	// (each quarter of its slices; for setup_s each repetition), where
	// there are any: -compare takes each file's own spread from them. The
	// one-workload result line leaves them out.
	Slices []float64 `json:"slices,omitempty"`
}

// metrics collects named values against a table, which supplies the units
// and rejects names the table does not know.
type metrics struct {
	defs []metricDef
	vals map[string]value
}

func newMetrics(defs []metricDef) *metrics {
	return &metrics{defs: defs, vals: make(map[string]value, len(defs))}
}

func (m *metrics) set(name string, v float64, slices ...float64) {
	d, ok := defNamed(m.defs, name)
	if !ok {
		panic("bench: metric " + name + " is not in the table")
	}
	m.vals[name] = value{Value: v, Unit: d.Unit, Slices: slices}
}

// complete returns the values, with a zero for every metric of the table
// nothing set — a per-layer probe that does not apply to the workload.
func (m *metrics) complete() map[string]value {
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			m.vals[d.Name] = value{Unit: d.Unit}
		}
	}
	return m.vals
}

// line is the one-workload result the driver reads: the last line of
// standard output.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the all-workloads output, and the input of -compare.
type report struct {
	Schema    int                       `json:"schema"`
	Smoke     bool                      `json:"smoke"`
	Seed      uint64                    `json:"seed"`
	Host      hostStamp                 `json:"host"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why       string           `json:"why"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Error     string           `json:"error,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

// hostStamp says where numbers came from, on every output: host time
// from two boxes, or from one box at two parallelisms, does not compare.
type hostStamp struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func stampHost() hostStamp {
	h := hostStamp{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     "unknown", // a checkout that is not a git repository has none
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// perLayer lists the traced pass's metrics, layer by layer. They carry no
// bound: they explain a movement of an end-to-end metric, they are not
// judged themselves. README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = layerTable()

func layerTable() []metricDef {
	var t []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			t = append(t, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "ms",
		"fabric.run_ms", "fabric.reset_ms", "fabric.columnar_run_ms", "fabric.new_ms",
		"plan.compile_ms", "plan.execute_ms", "plan.execute_unpooled_ms", "plan.self_ms", "plan.batch_ms_per_run",
		"wse.session_self_ms", "wse.oneshot_ms",
		"autogen.table_build_ms", "lowerbound.table_build_ms",
		"planstore.encode_ms", "planstore.decode_ms", "planstore.put_ms", "planstore.load_ms",
		"resolve.chain_hit_ms", "resolve.chain_miss_ms",
		"serve.handler_ms", "serve.body_decode_ms", "serve.body_encode_ms",
		"client.run_ms", "client.self_ms",
		"obs.serve_decode_ms", "obs.sched_queue_ms", "obs.fabric_exec_ms", "obs.serve_encode_ms",
		"ledger.round_ms", "ledger.accounted_ms", "lat.p50_ms", "lat.p90_ms", "lat.p99_ms",
		"host.calib_ms", "host.calib_min_ms", "host.calib_max_ms", "host.cpu_ms_per_op")
	add("lower", "us",
		"plan.key_us", "plan.cache_hit_us", "wse.validate_us", "model.predict_us", "lowerbound.bound_us",
		"sched.submit_us", "sched.queue_wait_p50_us")
	add("lower", "ns/step", "fabric.ns_per_step", "fabric.serial_ns_per_step", "fabric.sharded_ns_per_step")
	add("lower", "steps/cycle", "fabric.steps_per_cycle")
	add("lower", "count",
		"fabric.steps", "fabric.hops", "plan.cache_misses",
		"resolve.store_lookups", "resolve.store_misses", "resolve.compile_lookups", "resolve.compile_hits",
		"sched.rejected", "sched.cancelled", "client.attempts", "client.retries")
	add("higher", "count",
		"plan.cache_hits", "plan.store_hits", "resolve.store_hits", "sched.served",
		"obs.traced_requests", "lat.samples", "grid.cells")
	add("lower", "cells",
		"model.nonfinite_cells", "model.predict_mismatch_cells",
		"lowerbound.bound_gt_predict_cells", "lowerbound.cycles_lt_bound_cells")
	add("lower", "KB", "planstore.blob_kb", "serve.request_kb", "serve.response_kb")
	add("lower", "MB", "host.rss_peak_mb")
	add("lower", "ratio", "planstore.decode_vs_compile", "grid.bound_ratio_max")
	add("higher", "ratio", "grid.vendor_speedup_max")
	add("lower", "share", "ledger.unaccounted_share", "obs.unaccounted_share", "grid.nonconforming_share")
	add("higher", "share", "ledger.fabric_run_share")
	add("lower", "%", "grid.model_err_max_pct", "host.trace_overhead_pct")
	add("higher", "cores", "host.cores", "host.gomaxprocs")
	for _, kind := range kinds {
		add("lower", "ratio", "grid."+string(kind)+".bound_ratio")
		add("lower", "%", "grid."+string(kind)+".model_err_pct")
	}
	return t
}

// kinds are the 11 collective kinds, in the order the per-kind metrics
// are listed.
var kinds = []wse.Collective{
	wse.KindReduce, wse.KindAllReduce, wse.KindAllReduceMidRoot, wse.KindBroadcast,
	wse.KindScatter, wse.KindGather, wse.KindReduceScatter, wse.KindAllGather,
	wse.KindReduce2D, wse.KindAllReduce2D, wse.KindBroadcast2D,
}

package main

// Timing on a host that is not ours. The 2-vCPU shared VM this was sized
// on is disturbed from outside at every scale: single operations run up
// to 60 % over their usual time, and whole minutes run 20 % slow, while a
// pure-ALU calibration loop barely moves. Nothing in that disturbance
// belongs to the program under test, and all of it only ever adds time.
// So the end-to-end numbers estimate what the program costs when the host
// leaves it alone: latency is the 10th percentile of all operations
// (the level the fastest tenth reach), throughput the rate of the best
// half-second slice. Ten differently seeded runs spread (interquartile,
// over the median) 4-14 % by these, against 9-31 % by the median latency
// and the mean rate; the medians are still printed, per layer and on
// standard error, for what a caller saw.
//
// A workload is timed in short slices, each preceded by the calibration
// loop, and when several workloads run in one process their slices
// alternate, so a slow minute lands on all of them alike.

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sliceSeconds is the length of one timed slice of a time-bounded
// workload: short enough that some slices of a run escape disturbance,
// long enough for several operations of the slowest workload.
const sliceSeconds = 0.5

// maxFailures ends a caller's slice early: operations are chosen never to
// fail, so a failing one is a bug, and a bug that fails instantly would
// otherwise spin for the whole slice.
const maxFailures = 8

// slice is what one timed stretch of one workload measured.
type slice struct {
	lat      []time.Duration // one per successful operation, all callers
	failed   int
	busy     time.Duration // operation time summed over callers, divided by callers
	allocKB  float64       // runtime.MemStats.TotalAlloc delta
	calib    time.Duration // the calibration loop that preceded the slice
	firstErr error
}

func (s *slice) ops() int { return len(s.lat) }

// rate is the slice's operations per second of operation time.
func (s *slice) rate() float64 {
	if s.busy <= 0 {
		return 0
	}
	return float64(s.ops()) / s.busy.Seconds()
}

// runSlice times one slice. With passOps > 0 every caller runs exactly
// that many operations; otherwise callers run until dur has passed,
// finishing the operation in flight. seqs holds each caller's operation
// counter, which carries on from slice to slice.
func runSlice(in instance, passOps int, dur time.Duration, seqs []int) slice {
	sl := slice{calib: calibrate()}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	alloc0 := m.TotalAlloc
	deadline := time.Now().Add(dur)

	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		busy time.Duration
	)
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				lat    []time.Duration
				total  time.Duration
				failed int
				first  error
			)
			for n := 0; failed < maxFailures; n++ {
				if passOps > 0 {
					if n == passOps {
						break
					}
				} else if n > 0 && !time.Now().Before(deadline) {
					break
				}
				d, err := in.op(c, seqs[c])
				seqs[c]++
				if err != nil {
					failed++
					if first == nil {
						first = err
					}
					continue
				}
				lat = append(lat, d)
				total += d
			}
			mu.Lock()
			sl.lat = append(sl.lat, lat...)
			sl.failed += failed
			busy += total
			if sl.firstErr == nil {
				sl.firstErr = first
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	sl.busy = busy / time.Duration(len(seqs))
	runtime.ReadMemStats(&m)
	sl.allocKB = float64(m.TotalAlloc-alloc0) / 1024
	return sl
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate runs a fixed 2^22-step splitmix64 loop — pure register
// arithmetic, no memory, no allocation — and returns how long the host
// took. Its spread across a run's slices is the host's drift during the
// run, independent of the program under test.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 1<<22; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x ^= z ^ (z >> 31)
	}
	calibSink = x
	return time.Since(start)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of samples,
// which it sorts in place. Zero for no samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(q*float64(len(samples)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median is the middle of samples (the mean of the two middles for an
// even count); it leaves samples alone.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// timed is the pooled outcome of a workload's slices: the end-to-end
// numbers of its host side.
type timed struct {
	attempted, failed  int
	p10, p50, p90, p99 float64 // ms over pooled samples; p99 only from 1000 samples up
	samples            int
	opsPerS            float64 // the best slice's rate
	allocKBPerOp       float64 // median of the per-slice allocation per operation
	// The same three estimates over each quarter of the slices: how far
	// the run disagrees with itself, for -compare's own-spread test.
	partP10, partRate, partAlloc []float64
	sliceRate, calib             []float64 // per slice; calib in ms
	firstErr                     error
}

// p99MinSamples is where a 99th percentile starts to have ten samples
// beyond it.
const p99MinSamples = 1000

// parts is into how many consecutive stretches pool also splits a run.
const parts = 4

// estimate is the three host-side estimates over some slices, with their
// pooled latencies in ms. Allocation is taken per slice and then the
// median: a garbage collection that empties the plans' fabric pools makes
// one slice rebuild them, and a total would carry that slice's megabytes.
func estimate(slices []slice) (p10, rate, allocKB float64, lat []float64) {
	var allocs []float64
	for i := range slices {
		s := &slices[i]
		if s.ops() == 0 {
			continue
		}
		lat = append(lat, millis(s.lat)...)
		rate = max(rate, s.rate())
		allocs = append(allocs, s.allocKB/float64(s.ops()))
	}
	return percentile(lat, 0.10), rate, median(allocs), lat
}

func pool(slices []slice) timed {
	var t timed
	for i := range slices {
		s := &slices[i]
		t.failed += s.failed
		t.sliceRate = append(t.sliceRate, s.rate())
		t.calib = append(t.calib, ms(s.calib))
		if t.firstErr == nil {
			t.firstErr = s.firstErr
		}
	}
	var all []float64
	t.p10, t.opsPerS, t.allocKBPerOp, all = estimate(slices)
	t.samples = len(all)
	t.attempted = t.samples + t.failed
	t.p50 = percentile(all, 0.50) // all is sorted by now
	t.p90 = percentile(all, 0.90)
	if t.samples >= p99MinSamples {
		t.p99 = percentile(all, 0.99)
	}
	for g := 0; g < parts && len(slices) >= parts; g++ {
		p10, rate, alloc, lat := estimate(slices[g*len(slices)/parts : (g+1)*len(slices)/parts])
		if len(lat) > 0 {
			t.partP10, t.partRate, t.partAlloc = append(t.partP10, p10), append(t.partRate, rate), append(t.partAlloc, alloc)
		}
	}
	return t
}

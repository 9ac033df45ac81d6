package main

import (
	"fmt"
	"runtime"
	"time"
)

// processStart anchors the set-up clock: setup_s counts from the start of
// the process, so work moved out of the pass, even into package
// initialisation, shows there.
var processStart = time.Now()

const (
	// setupRepeats is how many times an untraced run sets the workload up.
	// The benchmark contract asks for several set-ups per run and their
	// median, which keeps one slow page-in from deciding setup_s.
	setupRepeats = 3
	// minPasses is the floor of timed passes of an untraced run, however
	// short --seconds is; the three slices of a full run pool ≥ 21.
	minPasses = 7
)

// metric is one named number with its unit. A metric that does not apply
// carries a nil value and the reason, never a stand-in number.
type metric struct {
	Value  *float64 `json:"value"`
	Unit   string   `json:"unit"`
	Reason string   `json:"reason,omitempty"`
	Note   string   `json:"note,omitempty"`
}

func num(v float64, unit string) metric { return metric{Value: &v, Unit: unit} }

func null(unit, reason string) metric { return metric{Unit: unit, Reason: reason} }

// opSummary is one entry of the result's ops array: per-op medians for
// readers, not named metrics.
type opSummary struct {
	Name  string  `json:"name"`
	MS    float64 `json:"ms_p50"`
	Ratio float64 `json:"cost_over_bound,omitempty"`
	modelNums
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload    string     `json:"workload"`
	Trace       bool       `json:"trace"`
	Scale       float64    `json:"scale"`
	Host        hostHeader `json:"host"`
	Fingerprint string     `json:"input_fingerprint"`
	Attempted   int        `json:"attempted"`
	Failed      int        `json:"failed"`
	Failures    []string   `json:"failures,omitempty"`
	SetupS      []float64  `json:"setup_s"`
	PassMS      []float64  `json:"pass_ms"`
	CalibMS     []float64  `json:"host_calib_ms"`
	PassRSSMB   []float64  `json:"pass_peak_rss_mb,omitempty"`
	ExitRSSMB   float64    `json:"exit_peak_rss_mb,omitempty"`
	// TracedPassMS is the mean traced pass, which core.protocol_ms +
	// lowerbound.bound_ms + registry.verify_glue_ms add up to.
	TracedPassMS float64           `json:"traced_pass_ms,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	Ops          []opSummary       `json:"ops"`
}

// runner executes passes of one set-up workload and keeps the failure
// count: an op fails when it errors, its output disagrees with the
// reference, or a model number differs from the warm-up pass's.
type runner struct {
	w    *workload
	base []modelNums // the warm-up pass's model numbers
	res  *runResult
	opMS [][]float64 // per op, per untraced timed pass
}

func (r *runner) fail(op string, err error) {
	r.res.Failed++
	if len(r.res.Failures) < 20 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("%s: %v", op, err))
	}
}

// settle verifies one finished op outside the timer.
func (r *runner) settle(i int, m modelNums, err error) {
	o := &r.w.ops[i]
	r.res.Attempted++
	if err == nil && o.check != nil {
		err = o.check()
	}
	if err == nil && r.base != nil && m != r.base[i] {
		err = fmt.Errorf("model numbers %+v differ from the warm-up pass's %+v", m, r.base[i])
	}
	if err != nil {
		r.fail(o.name, err)
	}
}

// pass executes the op list once, closed loop, and returns the pass time:
// the sum of the op times, checks excluded.
func (r *runner) pass(record bool) (total time.Duration, nums []modelNums) {
	nums = make([]modelNums, len(r.w.ops))
	for i := range r.w.ops {
		t0 := time.Now()
		m, err := r.w.ops[i].run()
		d := time.Since(t0)
		total += d
		nums[i] = m
		if record {
			r.opMS[i] = append(r.opMS[i], ms(d))
		}
		r.settle(i, m, err)
	}
	return total, nums
}

// calibrate runs the host calibration kernel, outside every timer; its
// buffers are unmapped again when it returns.
func (r *runner) calibrate() {
	r.res.CalibMS = append(r.res.CalibMS, calibrate(r.res.Host.Workers))
}

// timedPass is one pass of the timed loop: the calibration kernel and a
// forced GC first, both outside the timer.
func (r *runner) timedPass(record bool) float64 {
	r.calibrate()
	runtime.GC()
	reset := resetPeakRSS()
	d, _ := r.pass(record)
	if reset && record {
		r.res.PassRSSMB = append(r.res.PassRSSMB, peakRSSMB())
	}
	return ms(d)
}

// setUp builds the workload and runs the warm-up pass, whose model numbers
// become the determinism baseline.
func setUp(res *runResult, name string, seed uint64, scale float64) (*runner, error) {
	w, err := setup(name, seed, scale, res.Host.Workers)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, res: res, opMS: make([][]float64, len(w.ops))}
	_, r.base = r.pass(false)
	res.Fingerprint = fmt.Sprintf("%016x", w.fingerprint)
	return r, nil
}

func newResult(name string, seed uint64, scale float64, trace bool) *runResult {
	return &runResult{
		Workload: name, Trace: trace, Scale: scale,
		Host: newHostHeader(seed, benchWorkers()), Metrics: map[string]metric{},
	}
}

// runTimed is the end-to-end run: tracing off, set up setupRepeats times,
// then timed passes until both `seconds` have elapsed and minPasses ran.
// scale is 1 except in the smoke test.
func runTimed(name string, seed uint64, scale, seconds float64) (*runResult, error) {
	res := newResult(name, seed, scale, false)
	// Every set-up sample starts at the start of the process: what ran
	// before the first set-up counts in each of them.
	preMain := time.Since(processStart)
	var r *runner
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		r = nil
		runtime.GC() // the previous set-up is garbage: keep it out of the peak
		var err error
		if r, err = setUp(res, name, seed, scale); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, (preMain + time.Since(t0)).Seconds())
	}
	for start := time.Now(); time.Since(start).Seconds() < seconds || len(res.PassMS) < minPasses; {
		res.PassMS = append(res.PassMS, r.timedPass(true))
	}
	res.ExitRSSMB = peakRSSMB()
	res.hostMetrics()
	r.modelMetrics()
	r.summarizeOps()
	return res, nil
}

// calibRefMS is what the calibration kernel takes on the recording machine
// (2-vCPU Xeon 2.1 GHz, two workers) when nothing disturbs it.
const calibRefMS = 70.0

// hostMetrics derives the three host-side end-to-end metrics from the
// run's samples.
//
// The two times are scaled by calibRefMS ÷ the run's median host.calib_ms:
// they say what the run would have taken had the machine been as fast as
// in its quiet state. A shared machine runs 20–40% slow for minutes or
// hours, and the kernel, which touches no repo code, runs slow with it;
// scaled, the medians of ten runs moved by 1–7% between a quiet and a slow
// hour where the raw ones moved by 21–45% (README, "End-to-end metrics").
// The raw medians stay in the note and the samples in the result file.
//
// peak_rss_mb is the median over the timed passes of the peak RSS during
// the pass (the kernel's high-water mark is reset before each one), which
// repeats to ≈1% where the mark of the whole process moves by 15% with the
// timing of a single GC cycle; where the reset is not available it falls
// back to VmHWM at exit.
func (res *runResult) hostMetrics() {
	calib := median(res.CalibMS)
	scaled := func(raw float64, unit, format string) metric {
		m := num(raw*calibRefMS/calib, unit)
		m.Note = fmt.Sprintf("raw "+format+" %s × %g ÷ host.calib_ms p50 %.1f", raw, unit, calibRefMS, calib)
		return m
	}
	res.Metrics["setup_s"] = scaled(median(res.SetupS), "s", "%.3f")
	res.Metrics["pass_ms_p50"] = scaled(median(res.PassMS), "ms", "%.1f")
	if len(res.PassRSSMB) > 0 {
		res.Metrics["peak_rss_mb"] = num(median(res.PassRSSMB), "MB")
	} else {
		res.Metrics["peak_rss_mb"] = num(res.ExitRSSMB, "MB")
	}
}

func failShare(failed, attempted int) metric {
	return num(float64(failed)/float64(max(1, attempted)), "ratio")
}

// modelMetrics derives the simulated end-to-end metrics from the warm-up
// pass, which every later pass had to reproduce.
func (r *runner) modelMetrics() {
	res, w := r.res, r.w
	var costs, gains []float64
	rounds := 0
	for _, m := range r.base {
		costs = append(costs, m.Cost)
		rounds += m.Rounds
	}
	if g, ok := geomean(costs); ok {
		res.Metrics["model_cost_geomean"] = num(g, "elements")
	} else {
		res.Metrics["model_cost_geomean"] = null("elements", "no op has a positive model cost")
	}
	res.Metrics["model_rounds"] = num(float64(rounds), "rounds")
	for _, p := range w.pairs {
		if aware := r.base[w.opIndex(p[0])].Cost; aware > 0 {
			gains = append(gains, r.base[w.opIndex(p[1])].Cost/aware)
		}
	}
	if g, ok := geomean(gains); ok {
		res.Metrics["aware_gain_geomean"] = num(g, "ratio")
	} else {
		res.Metrics["aware_gain_geomean"] = null("ratio", "no (aware, flat) pair has a positive cost")
	}
}

// summarizeOps fills the result's ops array from the untraced passes.
func (r *runner) summarizeOps() {
	for i, m := range r.base {
		s := opSummary{Name: r.w.ops[i].name, MS: median(r.opMS[i]), modelNums: m}
		if m.Bound > 0 {
			s.Ratio = m.Cost / m.Bound
		}
		r.res.Ops = append(r.res.Ops, s)
	}
}

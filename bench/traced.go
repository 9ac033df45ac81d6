package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"topompc/internal/obs"
)

// Pass counts of the traced run. The untraced passes give the baseline of
// obs.trace_overhead and the runtime.* deltas.
const (
	untracedBaseline = 3
	tracedPasses     = 3
)

// span opens a bench-side span around a call into a layer. Spans of one op
// share its id and name their parent, nest by time on one lane, and stay
// in memory until the trace is written at the end of the run.
func span(tr obs.Tracer, lane int64, name, parent string, opID int) (end func() time.Duration) {
	sp := obs.Begin(tr, lane, name, "bench")
	t0 := time.Now()
	return func() time.Duration {
		d := time.Since(t0)
		args := map[string]any{"op": opID}
		if parent != "" {
			args["parent"] = parent
		}
		sp.End(args)
		return d
	}
}

// layerTimes splits one traced pass by layer, in ms. pass is the time of
// the op entry points themselves (what the untraced pass measures);
// protocol and bound are the direct calls into core and lowerbound; glue
// is what is left of pass: inline verification and the registry wrappers.
type layerTimes struct{ pass, protocol, bound float64 }

func (l layerTimes) glue() float64 { return l.pass - l.protocol - l.bound }

// tracedPass runs the op list with the recorder attached and bench-side
// spans around every call into a layer.
func (r *runner) tracedPass(tr obs.Tracer, lane int64, passIdx int) layerTimes {
	var l layerTimes
	for i := range r.w.ops {
		o := &r.w.ops[i]
		id := passIdx*len(r.w.ops) + i
		root := "op:" + o.name
		endOp := span(tr, lane, root, "", id)
		if o.protocol == nil {
			// A direct op: run is the protocol entry point itself.
			end := span(tr, lane, "core.protocol", root, id)
			m, err := o.run()
			d := ms(end())
			l.pass, l.protocol = l.pass+d, l.protocol+d
			endOp()
			r.settle(i, m, err)
			continue
		}
		end := span(tr, lane, "registry.run_task", root, id)
		m, err := o.run()
		l.pass += ms(end())
		end = span(tr, lane, "core.protocol", root, id)
		rep, perr := o.protocol()
		l.protocol += ms(end())
		if err == nil && perr == nil && rep.TotalCost() != m.Cost {
			perr = fmt.Errorf("direct protocol call costs %v, RunTask reports %v", rep.TotalCost(), m.Cost)
		}
		if o.bound != nil {
			end = span(tr, lane, "lowerbound.bound", root, id)
			b := o.bound()
			l.bound += ms(end())
			if err == nil && perr == nil && b != m.Bound {
				perr = fmt.Errorf("direct bound call gives %v, RunTask reports %v", b, m.Bound)
			}
		}
		endOp()
		if err == nil {
			err = perr
		}
		r.settle(i, m, err)
	}
	return l
}

// runtimeSample is a snapshot of the Go runtime's and the process's
// counters; deltas around a pass give the runtime.* metrics.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, cpu           float64
}

func sampleRuntime() runtimeSample {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	out := runtimeSample{allocBytes: mem.TotalAlloc, gcCycles: uint64(mem.NumGC), cpu: cpuSeconds()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	return out
}

// runTraced is the per-layer run: a few untraced passes, then traced passes
// with the recorder attached through public options only, then the probes
// and the worker-scaling pairs. `seconds` sizes the scaling pairs.
func runTraced(name string, seed uint64, scale, seconds float64, outDir string) (*runResult, error) {
	res := newResult(name, seed, scale, true)
	r, err := setUp(res, name, seed, scale)
	if err != nil {
		return nil, err
	}
	res.SetupS = []float64{time.Since(processStart).Seconds()}
	w, M := r.w, res.Metrics
	M["topology.build_ms"] = num(w.topologyBuildMS, "ms")
	M["dataset.generate_ms"] = num(w.datasetGenerateMS, "ms")

	r.runtimeMetrics()
	r.summarizeOps()
	if err := r.layerMetrics(median(res.PassMS), filepath.Join(outDir, "trace_"+name+".json")); err != nil {
		return nil, err
	}
	if err := r.probeMetrics(r.modelCounts()); err != nil {
		return nil, err
	}
	M["par.speedup"] = r.speedup(seconds)
	M["host.calib_ms"] = num(median(res.CalibMS), "ms")
	M["fail_share"] = failShare(res.Failed, res.Attempted)
	return res, nil
}

// runtimeMetrics runs the untraced baseline passes and reports the Go
// runtime's and the process's counters per pass, the live heap after a
// forced GC at the end, and the process's VmHWM so far: set-up and untraced
// passes, which is where memory moved out of the pass (and so out of
// peak_rss_mb) still shows.
func (r *runner) runtimeMetrics() {
	var allocMB, gcCycles, gcCPU, cpuS []float64
	for i := 0; i < untracedBaseline; i++ {
		r.calibrate()
		runtime.GC()
		before := sampleRuntime()
		d, _ := r.pass(true)
		after := sampleRuntime()
		r.res.PassMS = append(r.res.PassMS, ms(d))
		allocMB = append(allocMB, float64(after.allocBytes-before.allocBytes)/(1<<20))
		gcCycles = append(gcCycles, float64(after.gcCycles-before.gcCycles))
		gcCPU = append(gcCPU, after.gcCPU-before.gcCPU)
		cpuS = append(cpuS, after.cpu-before.cpu)
	}
	M := r.res.Metrics
	M["runtime.alloc_mb"] = num(mean(allocMB), "MB")
	M["runtime.gc_cycles"] = num(mean(gcCycles), "count")
	M["runtime.cpu_s"] = num(mean(cpuS), "s")
	M["runtime.gc_cpu_share"] = num(mean(gcCPU)/math.Max(mean(cpuS), 1e-9), "ratio")
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	M["runtime.live_heap_mb"] = num(float64(mem.HeapAlloc)/(1<<20), "MB")
	M["runtime.vm_hwm_mb"] = num(peakRSSMB(), "MB")
}

// layerMetrics runs the traced passes, writes the trace and reports the
// split of a pass by layer. The three layer times are means over the same
// passes, so protocol + bound + glue equals the mean traced pass time
// (res.TracedPassMS) by construction.
func (r *runner) layerMetrics(untracedMS float64, tracePath string) error {
	w, M := r.w, r.res.Metrics
	if w.layers != nil {
		w.layers()
	}
	trace, reg := obs.NewTrace(), obs.NewRegistry()
	lane := trace.NewTid("bench ops")
	w.attach(execCfg{workers: r.res.Host.Workers, tr: trace, mx: reg})
	var pass, protocol, bound, glue []float64
	for i := 0; i < tracedPasses; i++ {
		r.calibrate()
		runtime.GC()
		l := r.tracedPass(trace, lane, i)
		pass, protocol, bound, glue = append(pass, l.pass), append(protocol, l.protocol), append(bound, l.bound), append(glue, l.glue())
	}
	w.attach(execCfg{workers: r.res.Host.Workers})
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return err
	}
	if err := trace.WriteFile(tracePath); err != nil {
		return err
	}
	r.res.TracedPassMS = mean(pass)
	M["core.protocol_ms"] = num(mean(protocol), "ms")
	M["lowerbound.bound_ms"] = num(mean(bound), "ms")
	M["registry.verify_glue_ms"] = num(mean(glue), "ms")
	M["obs.trace_overhead"] = num(median(pass)/untracedMS-1, "ratio")

	var shardUS float64
	for _, e := range trace.Events() {
		if e.Cat == "par.shard" {
			shardUS += e.Dur
		}
	}
	M["par.forks"] = num(float64(reg.Counter("par.forks").Value())/tracedPasses, "count")
	M["par.shard_span_ms"] = num(shardUS/1000/tracedPasses, "ms")
	return nil
}

// modelCounts reports the exact per-pass netsim counts and the tightness
// of the bounds, and returns the pass's totals for the probes.
func (r *runner) modelCounts() (total modelNums) {
	w, M := r.w, r.res.Metrics
	offline := 0.0
	if w.offlineBound != nil {
		offline = w.offlineBound()
	}
	var ratios []float64
	for i, m := range r.base {
		total.Rounds, total.Messages, total.Elements = total.Rounds+m.Rounds, total.Messages+m.Messages, total.Elements+m.Elements
		bound := m.Bound
		if w.ops[i].graph {
			bound = offline
		}
		if bound > 0 {
			ratios = append(ratios, m.Cost/bound)
			r.res.Ops[i].Bound, r.res.Ops[i].Ratio = bound, m.Cost/bound
		}
	}
	M["netsim.rounds"] = num(float64(total.Rounds), "rounds")
	M["netsim.messages"] = num(float64(total.Messages), "count")
	M["netsim.elements"] = num(float64(total.Elements), "elements")
	if g, ok := geomean(ratios); ok {
		M["lowerbound.ratio_geomean"] = num(g, "ratio")
	} else {
		M["lowerbound.ratio_geomean"] = null("ratio", "no op of this workload has a positive bound")
	}
	return total
}

// probeMetrics runs the layer probes, shaped like the workload's mean
// round.
func (r *runner) probeMetrics(pass modelNums) error {
	w, M := r.w, r.res.Metrics
	msgsPerRound := max(1, int(pass.Messages)/max(1, pass.Rounds))
	elemsPerMsg := max(1, int(pass.Elements/max(1, pass.Messages)))
	plain := execCfg{workers: r.res.Host.Workers}

	lcaNS, pathNS := probeTopology(w.tree, msgsPerRound)
	M["topology.lca_ns"] = num(lcaNS, "ns")
	M["topology.pathacc_ns_per_path"] = num(pathNS, "ns")
	capMS, hierMS, err := probePlace(w.rebuild)
	if err != nil {
		return err
	}
	M["place.capacities_ms"] = num(capMS, "ms")
	M["place.hierarchy_ms"] = num(hierMS, "ms")
	planNS, execNS, allocs := probeNetsim(w.tree, plain, w.lean, msgsPerRound, elemsPerMsg)
	M["netsim.plan_ns_per_msg"] = num(planNS, "ns")
	M["netsim.execute_ns_per_msg"] = num(execNS, "ns")
	M["netsim.round_allocs"] = num(allocs, "count")
	share := num(float64(pass.Messages)*(planNS+execNS)/1e6/r.res.TracedPassMS, "ratio")
	share.Note = "computed: netsim.messages × (plan + execute ns/msg) ÷ traced pass time"
	M["netsim.est_share"] = share
	sortNS, forkNS := probePar(plain.workers, w.sortKeys, w.tree.NumCompute())
	M["par.sort_ns_per_key"] = num(sortNS, "ns")
	M["par.fork_ns"] = num(forkNS, "ns")
	return nil
}

// speedup compares pass medians at one worker and at the benchmark's
// worker count over interleaved pairs. It refuses on a one-CPU machine,
// where the ratio would read ≈1 and mean nothing.
func (r *runner) speedup(seconds float64) metric {
	workers := r.res.Host.Workers
	if runtime.NumCPU() < 2 || workers < 2 {
		return null("ratio", fmt.Sprintf("NumCPU = %d: worker scaling cannot be measured on one CPU", runtime.NumCPU()))
	}
	// A pair costs up to three passes' time; seconds/8 keeps a traced run
	// about as long as a timed one. Five pairs from 40 s on.
	pairs := max(1, min(5, int(seconds)/8))
	var one, many []float64
	for i := 0; i < pairs; i++ {
		r.w.attach(execCfg{workers: 1})
		one = append(one, r.timedPass(false))
		r.w.attach(execCfg{workers: workers})
		many = append(many, r.timedPass(false))
	}
	m := num(median(one)/median(many), "ratio")
	m.Note = fmt.Sprintf("pass median at 1 worker ÷ at %d workers, %d interleaved pairs", workers, pairs)
	return m
}

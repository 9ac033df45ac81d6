package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"topompc"
	"topompc/internal/cliutil"
	"topompc/internal/core/aggregate"
	"topompc/internal/core/cartesian"
	"topompc/internal/core/graph"
	"topompc/internal/core/intersect"
	"topompc/internal/core/join"
	"topompc/internal/core/multijoin"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
)

// workloadNames lists the workloads in the order the driver interleaves
// them; BENCHMARK.json says why each exists.
var workloadNames = []string{"primitives-skew", "analytics-fanout", "graph-dense", "dataplane-wide"}

// fabricSeed draws analytics-fanout's network. The fabric is part of the
// fixture, like the two-tier's rack sizes: -seed varies the data and the
// protocols' hash seeds, never the shape, so model costs of different
// seeds stay comparable.
const fabricSeed = 7

// execCfg is what a pass runs under: the worker count every engine and
// protocol gets explicitly, and the flight recorder (off when nil).
type execCfg struct {
	workers int
	tr      obs.Tracer
	mx      *obs.Registry
}

func (c execCfg) netsimOpts(lean bool) []netsim.Option {
	opts := []netsim.Option{netsim.WithWorkers(c.workers)}
	if lean {
		opts = append(opts, netsim.WithLeanStats())
	}
	if c.tr != nil {
		opts = append(opts, netsim.WithTracer(c.tr))
	}
	if c.mx != nil {
		opts = append(opts, netsim.WithMetrics(c.mx))
	}
	return opts
}

// modelNums are the simulated numbers of one op. They are a pure function
// of the inputs: every pass must reproduce the warm-up pass's bit for bit.
type modelNums struct {
	Cost     float64 `json:"cost"`
	Rounds   int     `json:"rounds"`
	Messages int64   `json:"messages"`
	Elements int64   `json:"elements"`
	// Bound is the instance lower bound the op's entry point reports (0
	// when it reports none).
	Bound float64 `json:"bound"`
}

func fromReport(rep *netsim.Report, bound float64) modelNums {
	m := modelNums{Cost: rep.TotalCost(), Rounds: rep.NumRounds(), Elements: rep.TotalElements(), Bound: bound}
	for _, rd := range rep.Rounds {
		m.Messages += int64(rd.Messages)
	}
	return m
}

// op is one operation of a pass.
type op struct {
	name string
	// run executes the op through the entry point its user calls.
	run func() (modelNums, error)
	// check compares the last run's output with the reference, outside the
	// timer. Nil where run's entry point verifies inline (RunTask).
	check func() error
	// protocol and bound are the public entry points behind run, called
	// directly on the same inputs; workload.layers fills them in for the
	// traced run. A nil protocol means run already is the protocol call.
	protocol func() (*netsim.Report, error)
	bound    func() float64
	// graph marks the direct connectivity calls, whose entry points compute
	// no bound: workload.offlineBound is theirs.
	graph bool
}

// workload is one set of inputs plus the op list a pass executes.
type workload struct {
	name  string
	tree  *topology.Tree
	ops   []op
	pairs [][2]string // (aware, flat) op names behind aware_gain_geomean
	lean  bool        // the workload's engines run with lean stats
	// sortKeys sizes the par.sort probe: the keys (or edges) one kernel
	// sort of this workload handles.
	sortKeys int
	// fingerprint hashes the generated inputs (tests: a new seed must move
	// it, the same seed must not).
	fingerprint uint64

	topologyBuildMS   float64
	datasetGenerateMS float64

	cfg       execCfg
	cluster   *topompc.Cluster // RunTask workloads only
	exchanges []*exchangeOp
	// rebuild constructs a fresh copy of the tree (place memoizes on the
	// tree, so the place probes need an unused one).
	rebuild func() (*topology.Tree, error)
	// layers fills in op.protocol/op.bound; called once before the traced
	// passes, outside every timer.
	layers func()
	// offlineBound is the instance bound of the graph ops, which their
	// direct entry points do not compute; evaluated once, untimed, for
	// lowerbound.ratio_geomean.
	offlineBound func() float64
}

// attach switches every op of the workload to cfg.
func (w *workload) attach(cfg execCfg) {
	w.cfg = cfg
	if w.cluster != nil {
		// Interface fields are only assigned when set, so a disabled
		// recorder stays a nil interface.
		o := topompc.ExecOptions{Workers: cfg.workers, Metrics: cfg.mx}
		if cfg.tr != nil {
			o.Tracer = cfg.tr
		}
		w.cluster.SetExecOptions(o)
	}
	for _, x := range w.exchanges {
		x.attach(cfg)
	}
}

// opIndex finds an op of the workload by name; asking for one that is not
// there is a bug in the workload's own definition.
func (w *workload) opIndex(name string) int {
	for i := range w.ops {
		if w.ops[i].name == name {
			return i
		}
	}
	panic("bench: unknown op " + name)
}

// setLayers installs the direct protocol and bound calls of one op.
// Protocols get the options RunTask passes (workers + tracer); metrics stay
// on run alone so registry counters are not doubled.
func (w *workload) setLayers(name string, protocol func(o []netsim.Option) (*netsim.Report, error), bound func() float64) {
	o := &w.ops[w.opIndex(name)]
	o.protocol = func() (*netsim.Report, error) {
		return protocol(execCfg{workers: w.cfg.workers, tr: w.cfg.tr}.netsimOpts(false))
	}
	o.bound = bound
}

func scaled(n int, scale float64) int { return max(16, int(math.Round(float64(n)*scale))) }

// zipfWeights is the fixed placement skew of the RunTask workloads:
// zipf(1.2) shares in compute-node order, heaviest last (on the two-tier,
// behind the weakest uplink). Which node is heavy is part of the fixture,
// not of the seed.
func zipfWeights(p int) []float64 {
	w := make([]float64, p)
	for i := range w {
		w[i] = 1 / math.Pow(float64(p-i), 1.2)
	}
	return w
}

// generator draws registry-task inputs from one seeded stream. The first
// error sticks: later inputs are skipped and the caller checks err once.
type generator struct {
	rng    *rand.Rand
	placer cliutil.PlaceFunc
	p      int
	seed   uint64
	hash   uint64
	err    error
}

func newGenerator(seed uint64, p int) *generator {
	weights := zipfWeights(p)
	return &generator{
		rng:  rand.New(rand.NewSource(int64(seed))),
		p:    p,
		seed: seed,
		placer: func(_ *rand.Rand, keys []uint64, _ int) (dataset.Placement, error) {
			return dataset.SplitWeighted(keys, weights)
		},
	}
}

func (g *generator) mix(frags [][]uint64) {
	for _, f := range frags {
		for _, k := range f {
			g.hash = (g.hash ^ k) * 0x100000001b3
		}
	}
}

// input generates the TaskInput the named task consumes at size n, the way
// toposim/topobench do (cliutil.TaskData).
func (g *generator) input(task string, n int) *topompc.TaskInput {
	if g.err != nil {
		return nil
	}
	spec, ok := topompc.LookupTask(task)
	if !ok {
		g.err = fmt.Errorf("bench: task %q is not registered", task)
		return nil
	}
	in, err := cliutil.TaskData(spec, g.rng, g.placer, g.p, n, 0, 0, g.seed)
	if err != nil {
		g.err = fmt.Errorf("bench: generating %s input: %w", task, err)
		return nil
	}
	g.mix(in.R)
	g.mix(in.S)
	g.mix(in.Data)
	for _, rel := range in.Rels {
		g.mix(rel)
	}
	return &in
}

// taskOp runs a registry task through Cluster.RunTask, whose inline
// verification is the correctness gate of the RunTask workloads.
func (w *workload) taskOp(task string, in *topompc.TaskInput) op {
	return op{name: task, run: func() (modelNums, error) {
		res, err := w.cluster.RunTask(task, *in)
		if err != nil {
			return modelNums{}, err
		}
		return fromReport(res.Report, res.Cost.LowerBound), nil
	}}
}

// setup builds the named workload from seed at the given size scale
// (1 = the sizes BENCHMARK.json records).
func setup(name string, seed uint64, scale float64, workers int) (*workload, error) {
	w := &workload{name: name}
	var err error
	switch name {
	case "primitives-skew":
		err = w.setupPrimitivesSkew(seed, scale)
	case "analytics-fanout":
		err = w.setupAnalyticsFanout(seed, scale)
	case "graph-dense":
		err = w.setupGraphDense(seed, scale)
	case "dataplane-wide":
		err = w.setupDataplaneWide(seed, scale)
	default:
		err = fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	w.attach(execCfg{workers: workers})
	return w, nil
}

// buildTree times a topology constructor and keeps it for the place probes.
func (w *workload) buildTree(build func() (*topology.Tree, error)) error {
	t0 := time.Now()
	tree, err := build()
	if err != nil {
		return fmt.Errorf("bench: building %s topology: %w", w.name, err)
	}
	w.topologyBuildMS = ms(time.Since(t0))
	w.tree, w.rebuild = tree, build
	return nil
}

func (w *workload) setupPrimitivesSkew(seed uint64, scale float64) error {
	if err := w.buildTree(func() (*topology.Tree, error) {
		return topology.TwoTier([]int{4, 4, 4}, []float64{4, 2, 1}, 8)
	}); err != nil {
		return err
	}
	tree := w.tree
	w.cluster = topompc.NewCluster(tree)
	n := scaled(500_000, scale)
	w.sortKeys = n

	t0 := time.Now()
	g := newGenerator(seed, tree.NumCompute())
	pair, square, single := g.input("intersect", n), g.input("cartesian", n), g.input("sort", n)
	if g.err != nil {
		return g.err
	}
	w.datasetGenerateMS, w.fingerprint = ms(time.Since(t0)), g.hash

	w.ops = []op{
		w.taskOp("intersect", pair), w.taskOp("intersect-baseline", pair),
		w.taskOp("cartesian", square),
		w.taskOp("sort", single), w.taskOp("sort-baseline", single),
		w.taskOp("sort-aware", single), w.taskOp("sort-aware-flat", single),
	}
	w.pairs = [][2]string{{"intersect", "intersect-baseline"}, {"sort", "sort-baseline"}, {"sort-aware", "sort-aware-flat"}}

	w.layers = func() {
		r, s := dataset.Placement(pair.R), dataset.Placement(pair.S)
		intersectBound := func() float64 {
			return lowerbound.Intersection(tree, cliutil.Loads(tree, r, s), int64(r.Total()), int64(s.Total())).Value
		}
		for name, run := range map[string]func(*topology.Tree, dataset.Placement, dataset.Placement, uint64, ...netsim.Option) (*intersect.Result, error){
			"intersect": intersect.Tree, "intersect-baseline": intersect.UniformHash,
		} {
			w.setLayers(name, func(o []netsim.Option) (*netsim.Report, error) {
				res, err := run(tree, r, s, seed, o...)
				if err != nil {
					return nil, err
				}
				return res.Report, nil
			}, intersectBound)
		}
		cr, cs := dataset.Placement(square.R), dataset.Placement(square.S)
		w.setLayers("cartesian", func(o []netsim.Option) (*netsim.Report, error) {
			res, err := cartesian.Tree(tree, cr, cs, o...)
			if err != nil {
				return nil, err
			}
			return res.Report, nil
		}, func() float64 { return lowerbound.Cartesian(tree, cliutil.Loads(tree, cr, cs)).Value })
		data := dataset.Placement(single.Data)
		sortBound := func() float64 { return lowerbound.Sorting(tree, cliutil.Loads(tree, data)).Value }
		for name, run := range map[string]func(*topology.Tree, dataset.Placement, uint64, ...netsim.Option) (*sorting.Result, error){
			"sort": sorting.WTS, "sort-baseline": sorting.TeraSort,
			"sort-aware": sorting.CapacitySort, "sort-aware-flat": sorting.CapacitySortFlat,
		} {
			w.setLayers(name, func(o []netsim.Option) (*netsim.Report, error) {
				res, err := run(tree, data, seed, o...)
				if err != nil {
					return nil, err
				}
				return res.Report, nil
			}, sortBound)
		}
	}
	return nil
}

func tuplesOf(frags [][]uint64) multijoin.Placement {
	out := make(multijoin.Placement, len(frags))
	for i, f := range frags {
		out[i] = make([]multijoin.Tuple, len(f))
		for j, k := range f {
			t := topompc.DecodeTuple2(k)
			out[i][j] = multijoin.Tuple{A: t.A, B: t.B}
		}
	}
	return out
}

func (w *workload) setupAnalyticsFanout(seed uint64, scale float64) error {
	if err := w.buildTree(func() (*topology.Tree, error) {
		g, err := topology.RandomizedFanout(rand.New(rand.NewSource(fabricSeed)), 64, 2, 0.5, 4)
		if err != nil {
			return nil, err
		}
		return topology.FromGraph(g)
	}); err != nil {
		return err
	}
	tree := w.tree
	w.cluster = topompc.NewCluster(tree)
	w.sortKeys = scaled(200_000, scale)

	t0 := time.Now()
	g := newGenerator(seed, tree.NumCompute())
	pair := g.input("join", scaled(200_000, scale))
	groups := g.input("agg-tree2", scaled(100_000, scale))
	star := g.input("starjoin", scaled(100_000, scale))
	tri := g.input("triangle", scaled(20_000, scale))
	if g.err != nil {
		return g.err
	}
	w.datasetGenerateMS, w.fingerprint = ms(time.Since(t0)), g.hash

	w.ops = []op{
		w.taskOp("join", pair),
		w.taskOp("agg-tree2", groups), w.taskOp("agg-aware-flat", groups),
		w.taskOp("starjoin", star), w.taskOp("starjoin-flat", star),
		w.taskOp("triangle", tri),
	}
	w.pairs = [][2]string{{"agg-tree2", "agg-aware-flat"}, {"starjoin", "starjoin-flat"}}

	w.layers = func() {
		rows := func(frags [][]uint64) join.Placement {
			out := make(join.Placement, len(frags))
			for i, f := range frags {
				for _, k := range f {
					out[i] = append(out[i], join.Tuple{Key: k, Payload: k})
				}
			}
			return out
		}
		jr, js := rows(pair.R), rows(pair.S)
		w.setLayers("join", func(o []netsim.Option) (*netsim.Report, error) {
			res, err := join.Tree(tree, jr, js, seed, o...)
			if err != nil {
				return nil, err
			}
			return res.Report, nil
		}, nil) // no bound is claimed for joins

		recs := make(aggregate.Placement, len(groups.Data))
		for i, f := range groups.Data {
			for _, k := range f {
				recs[i] = append(recs[i], aggregate.Pair{Group: k, Value: 1})
			}
		}
		aggBound := func() float64 { return aggregate.LowerBound(tree, recs) }
		for name, run := range map[string]func(*topology.Tree, aggregate.Placement, uint64, ...netsim.Option) (*aggregate.Result, error){
			"agg-tree2": aggregate.CombinerTree, "agg-aware-flat": aggregate.HashFlat,
		} {
			w.setLayers(name, func(o []netsim.Option) (*netsim.Report, error) {
				res, err := run(tree, recs, seed, o...)
				if err != nil {
					return nil, err
				}
				return res.Report, nil
			}, aggBound)
		}

		// The multijoin bounds take the reference's output count and
		// maximum degree, which RunTask gets from its inline verification;
		// here the reference runs once, untimed.
		rels := make([]multijoin.Placement, len(star.Rels))
		for j, rel := range star.Rels {
			rels[j] = tuplesOf(rel)
		}
		starRef := multijoin.StarReference(rels)
		starBound := func() float64 {
			return lowerbound.Multijoin(tree, starRef.Count, starRef.MaxDeg, multijoin.StarCutCounts(tree, rels)).Value
		}
		for name, run := range map[string]func(*topology.Tree, []multijoin.Placement, uint64, ...netsim.Option) (*multijoin.Result, error){
			"starjoin": multijoin.Star, "starjoin-flat": multijoin.StarFlat,
		} {
			w.setLayers(name, func(o []netsim.Option) (*netsim.Report, error) {
				res, err := run(tree, rels, seed, o...)
				if err != nil {
					return nil, err
				}
				return res.Report, nil
			}, starBound)
		}
		tr, ts, tt := tuplesOf(tri.Rels[0]), tuplesOf(tri.Rels[1]), tuplesOf(tri.Rels[2])
		triRef := multijoin.TriangleReference(tr, ts, tt)
		w.setLayers("triangle", func(o []netsim.Option) (*netsim.Report, error) {
			res, err := multijoin.Triangle(tree, tr, ts, tt, seed, o...)
			if err != nil {
				return nil, err
			}
			return res.Report, nil
		}, func() float64 {
			return lowerbound.Multijoin(tree, triRef.Count, triRef.MaxDeg, multijoin.TriangleCutCounts(tree, tr, ts, tt)).Value
		})
	}
	return nil
}

// gnpEdges samples G(n, deg/n) from seed and deals the edges round-robin
// over the compute nodes.
func gnpEdges(seed uint64, n int, deg float64, nodes int) (graph.Placement, uint64, error) {
	packed, err := dataset.GNP(rand.New(rand.NewSource(int64(seed))), n, min(1, deg/float64(n)))
	if err != nil {
		return nil, 0, fmt.Errorf("bench: sampling G(%d, %g/n): %w", n, deg, err)
	}
	edges := make(graph.Placement, nodes)
	var hash uint64
	for i, pk := range packed {
		u, v := dataset.UnpackEdge(pk)
		edges[i%nodes] = append(edges[i%nodes], graph.Edge{U: uint64(u), V: uint64(v)})
		hash = (hash ^ pk) * 0x100000001b3
	}
	return edges, hash, nil
}

type ccRunner func(*topology.Tree, graph.Placement, uint64, ...netsim.Option) (*graph.Result, error)

// graphOp calls a connectivity protocol directly with lean stats (the
// public API has no lean option and verifies inline) and checks the
// labeling — and the forest, when there is one — against the union-find
// reference outside the timer.
func (w *workload) graphOp(name string, run ccRunner, edges graph.Placement, ref *graph.Ref, seed uint64) op {
	var last *graph.Result
	return op{
		name:  name,
		graph: true,
		run: func() (modelNums, error) {
			res, err := run(w.tree, edges, seed, w.cfg.netsimOpts(true)...)
			if err != nil {
				return modelNums{}, err
			}
			last = res
			return fromReport(res.Report, 0), nil
		},
		check: func() error {
			if last.Components != ref.Count || last.Checksum != ref.Checksum {
				return fmt.Errorf("%s: %d components (checksum %x), reference has %d (%x)",
					name, last.Components, last.Checksum, ref.Count, ref.Checksum)
			}
			if last.Forest != nil {
				return graph.VerifyForest(ref, last.Forest)
			}
			return nil
		},
	}
}

func (w *workload) connectivityBound(edges graph.Placement) func() float64 {
	return func() float64 {
		return lowerbound.Connectivity(w.tree, graph.ComponentSpread(w.tree, edges)).Value
	}
}

func (w *workload) setupGraphDense(seed uint64, scale float64) error {
	if err := w.buildTree(func() (*topology.Tree, error) { return topology.FatTree(3, 4, 16, 0.25) }); err != nil {
		return err
	}
	w.lean = true
	t0 := time.Now()
	edges, hash, err := gnpEdges(seed, scaled(100_000, scale), 20, w.tree.NumCompute())
	if err != nil {
		return err
	}
	w.datasetGenerateMS, w.fingerprint = ms(time.Since(t0)), hash
	w.sortKeys = int(edges.NumEdges())
	ref := graph.Reference(edges)
	w.ops = []op{
		w.graphOp("cc", graph.CC, edges, ref, seed),
		w.graphOp("cc-fast", graph.CCFast, edges, ref, seed),
		w.graphOp("cc-flat", graph.CCFlat, edges, ref, seed),
		w.graphOp("spanforest", graph.SpanningForest, edges, ref, seed),
	}
	w.pairs = [][2]string{{"cc", "cc-flat"}}
	w.offlineBound = w.connectivityBound(edges)
	return nil
}

// gradedCaterpillar is the topobench -scale fixture: a router path with a
// repeating 1..7 bandwidth gradient and one compute leaf (leg 4) per router.
func gradedCaterpillar(spines int) (*topology.Tree, error) {
	spine := make([]float64, spines)
	for i := range spine {
		spine[i] = 1 + float64(i%7)
	}
	return topology.Caterpillar(spine, 4)
}

// setupDataplaneWide runs at half the size ISSUE 11 sketched (a 10⁵-node
// caterpillar and G(10⁵, 4/n)): on the recording machine a full-size pass
// took 2.5–4.1 s, outside the [1, 3] s a pass should stay in, and left one
// driver run only five to nine passes to take a median of.
func (w *workload) setupDataplaneWide(seed uint64, scale float64) error {
	spines := scaled(25_000, scale)
	if err := w.buildTree(func() (*topology.Tree, error) { return gradedCaterpillar(spines) }); err != nil {
		return err
	}
	w.lean = true
	t0 := time.Now()
	edges, hash, err := gnpEdges(seed, scaled(50_000, scale), 4, w.tree.NumCompute())
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	transfers := w.tree.NumNodes()
	unicast, err := newExchangeOp("exchange-unicast", w.tree, rng, transfers, 0)
	if err != nil {
		return err
	}
	mcast, err := newExchangeOp("exchange-mcast", w.tree, rng, transfers, 4)
	if err != nil {
		return err
	}
	w.datasetGenerateMS, w.fingerprint = ms(time.Since(t0)), hash^unicast.hash^mcast.hash
	w.sortKeys = int(edges.NumEdges())
	ref := graph.Reference(edges)
	w.exchanges = []*exchangeOp{unicast, mcast}
	// cc-flat rides along so the workload has an (aware, flat) pair: the
	// benchmark contract wants every end-to-end metric on every workload.
	w.ops = []op{
		w.graphOp("cc", graph.CC, edges, ref, seed),
		w.graphOp("cc-flat", graph.CCFlat, edges, ref, seed),
		unicast.op(), mcast.op(),
	}
	w.pairs = [][2]string{{"cc", "cc-flat"}}
	w.offlineBound = w.connectivityBound(edges)
	return nil
}

// Package topompc is a library for topology-aware massively parallel data
// processing, reproducing "Algorithms for a Topology-aware Massively
// Parallel Computation Model" (Hu, Koutris, Blanas — PODS 2021).
//
// The model: a cluster is a symmetric tree network whose leaves (and
// possibly internal nodes) are compute nodes and whose links have
// individual bandwidths. Protocols run in synchronous rounds; the cost of a
// round is the worst transfer-time over all links, cost(A) = Σ_i max_e
// |Y_i(e)|/w_e, and protocols know the initial data sizes N_v at every
// node.
//
// The package exposes the paper's three instance-optimal primitives —
// set intersection, cartesian product, and sorting — together with their
// closed-form lower bounds and the topology-oblivious baselines they are
// measured against. Every call executes the full protocol on a built-in
// network cost simulator and returns both the verified output and the cost
// accounting.
//
//	cluster, _ := topompc.TwoTierCluster([]int{4, 4}, []float64{10, 1}, 25)
//	res, _ := cluster.Intersect(rFragments, sFragments, seed)
//	fmt.Println(res.Cost.Cost, res.Cost.LowerBound, res.Cost.Ratio())
package topompc

import (
	"fmt"

	"topompc/internal/core/cartesian"
	"topompc/internal/core/intersect"
	"topompc/internal/core/multijoin"
	"topompc/internal/core/sorting"
	"topompc/internal/dataset"
	"topompc/internal/lowerbound"
	"topompc/internal/netsim"
	"topompc/internal/obs"
	"topompc/internal/topology"
)

// Cluster is a symmetric tree network of compute nodes and routers.
type Cluster struct {
	t    *topology.Tree
	exec ExecOptions
}

// ExecOptions tunes how protocols execute on the cluster's exchange-plan
// runtime. The zero value is the default configuration.
type ExecOptions struct {
	// Workers bounds the goroutines used for per-node planning and sharded
	// round accounting; 0 means one per available CPU.
	Workers int
	// BitsPerElement, when positive, additionally reports round costs in
	// bits (Cost.Bits = Cost.Cost × BitsPerElement) — the paper's log N
	// wire-width factor.
	BitsPerElement int
	// Tracer, when non-nil, attaches the flight recorder: every engine the
	// protocols create emits per-round spans (cost, bottleneck edge) and
	// the protocol layers add phase/level spans and combining decisions,
	// all into this sink (typically an obs.Trace exported as Chrome
	// trace-event JSON). Nil keeps tracing disabled at zero overhead.
	Tracer obs.Tracer
	// Metrics, when non-nil, collects counters/gauges/histograms
	// (netsim.*, graph.*, aggregate.*) across all protocol executions for
	// snapshotting into benchmark records or expvar.
	Metrics *obs.Registry
}

// SetExecOptions configures protocol execution for all subsequent task
// calls on this cluster.
func (c *Cluster) SetExecOptions(o ExecOptions) { c.exec = o }

// netsimOpts lowers the options onto the engine.
func (o ExecOptions) netsimOpts() []netsim.Option {
	var opts []netsim.Option
	if o.Workers != 0 {
		opts = append(opts, netsim.WithWorkers(o.Workers))
	}
	if o.Tracer != nil {
		opts = append(opts, netsim.WithTracer(o.Tracer))
	}
	if o.Metrics != nil {
		opts = append(opts, netsim.WithMetrics(o.Metrics))
	}
	return opts
}

// StarCluster builds a star: one central router and len(bandwidths)
// compute nodes, each on its own link (Figure 1a of the paper).
func StarCluster(bandwidths []float64) (*Cluster, error) {
	t, err := topology.Star(bandwidths)
	if err != nil {
		return nil, err
	}
	return &Cluster{t: t}, nil
}

// TwoTierCluster builds a spine-and-racks datacenter tree: racks[i] compute
// nodes behind rack router i, whose uplink to the spine has bandwidth
// uplinks[i]; every leaf link has bandwidth leaf.
func TwoTierCluster(racks []int, uplinks []float64, leaf float64) (*Cluster, error) {
	t, err := topology.TwoTier(racks, uplinks, leaf)
	if err != nil {
		return nil, err
	}
	return &Cluster{t: t}, nil
}

// FatTreeCluster builds a complete fanout-ary router tree with compute
// leaves; link bandwidth grows by the given factor per level toward the
// core.
func FatTreeCluster(levels, fanout int, leafBW, growth float64) (*Cluster, error) {
	t, err := topology.FatTree(levels, fanout, leafBW, growth)
	if err != nil {
		return nil, err
	}
	return &Cluster{t: t}, nil
}

// CaterpillarCluster builds a router path with one compute leaf per router.
func CaterpillarCluster(spine []float64, leg float64) (*Cluster, error) {
	t, err := topology.Caterpillar(spine, leg)
	if err != nil {
		return nil, err
	}
	return &Cluster{t: t}, nil
}

// MeshCluster builds a rows × cols compute lattice with uniform link
// bandwidth — a general (non-tree) network, compressed to its Gomory–Hu
// equivalent-cut tree before protocols run (see GraphCluster).
func MeshCluster(rows, cols int, bw float64) (*Cluster, error) {
	g, err := topology.Mesh(rows, cols, bw)
	if err != nil {
		return nil, err
	}
	return GraphCluster(g)
}

// RingOfRacksCluster builds a cycle of rack routers with compute leaves —
// a general network whose two ring arcs add capacity between every rack
// pair; compressed to its cut tree before protocols run.
func RingOfRacksCluster(racks, perRack int, ring, leaf float64) (*Cluster, error) {
	g, err := topology.RingOfRacks(racks, perRack, ring, leaf)
	if err != nil {
		return nil, err
	}
	return GraphCluster(g)
}

// ClosCluster builds a leaf–spine fabric (every leaf router linked to
// every spine router) with compute nodes under the leaves; compressed to
// its cut tree before protocols run.
func ClosCluster(spines, leaves, perLeaf int, spine, leaf float64) (*Cluster, error) {
	g, err := topology.Clos(spines, leaves, perLeaf, spine, leaf)
	if err != nil {
		return nil, err
	}
	return GraphCluster(g)
}

// GraphCluster wraps a general network: the graph is compressed to its
// Gomory–Hu equivalent-cut tree (topology.FromGraph), on which every
// tree-edge bandwidth is a true min-cut capacity of the graph, so the
// modeled per-edge costs are bottleneck-faithful. What the compression
// gives up is path multiplicity: traffic the real network would spread
// over parallel paths is modeled as crossing the single bottleneck cut.
func GraphCluster(g *topology.Graph) (*Cluster, error) {
	t, err := topology.FromGraph(g)
	if err != nil {
		return nil, err
	}
	return &Cluster{t: t}, nil
}

// NewCluster wraps an already-built topology tree. It exists for the
// in-module command-line tools; external callers use the named
// constructors or ParseCluster.
func NewCluster(t *topology.Tree) *Cluster { return &Cluster{t: t} }

// ParseCluster decodes a cluster from its JSON spec (see topology.Spec for
// the format: {"nodes": [{"name", "compute"}], "edges": [{"a","b","bw"}]},
// with bw = -1 denoting an infinite-bandwidth link).
func ParseCluster(jsonSpec []byte) (*Cluster, error) {
	t, err := topology.ParseJSON(jsonSpec)
	if err != nil {
		return nil, err
	}
	return &Cluster{t: t}, nil
}

// ParseGraphCluster decodes a general-network cluster from the same JSON
// spec format, except that cycles and parallel edges are allowed and
// bw = -1 (+Inf) is not; the network is compressed to its cut tree as in
// GraphCluster.
func ParseGraphCluster(jsonSpec []byte) (*Cluster, error) {
	g, err := topology.ParseGraphJSON(jsonSpec)
	if err != nil {
		return nil, err
	}
	return GraphCluster(g)
}

// NumNodes reports the number of compute nodes. Fragment slices passed to
// the task methods must have exactly this length, indexed in node order.
func (c *Cluster) NumNodes() int { return c.t.NumCompute() }

// NodeNames reports the compute node names in fragment-index order.
func (c *Cluster) NodeNames() []string {
	out := make([]string, 0, c.t.NumCompute())
	for _, v := range c.t.ComputeNodes() {
		out = append(out, c.t.Name(v))
	}
	return out
}

// String renders the cluster topology as an ASCII tree.
func (c *Cluster) String() string { return c.t.String() }

// Cost summarizes a protocol execution against its lower bound. Costs are
// in elements: the time to move k elements over a link of bandwidth w is
// k/w.
type Cost struct {
	// Rounds is the number of communication rounds used.
	Rounds int
	// Cost is the measured model cost Σ_i max_e |Y_i(e)|/w_e.
	Cost float64
	// LowerBound is the instance-specific lower bound for the task
	// (Theorem 1, Theorems 3+4, or Theorem 6).
	LowerBound float64
	// Elements is the total number of elements transmitted.
	Elements int64
	// Bits is the cost in bits (Cost × ExecOptions.BitsPerElement); zero
	// unless bit-width accounting was enabled.
	Bits float64
}

// Ratio reports Cost / LowerBound (1 when both are zero).
func (c Cost) Ratio() float64 { return netsim.Ratio(c.Cost, c.LowerBound) }

func (c *Cluster) checkFragments(name string, frags [][]uint64) error {
	return c.checkFragmentCount(name, len(frags))
}

func (c *Cluster) checkFragmentCount(name string, n int) error {
	if n != c.t.NumCompute() {
		return fmt.Errorf("topompc: %s has %d fragments, cluster has %d compute nodes",
			name, n, c.t.NumCompute())
	}
	return nil
}

func (c *Cluster) loads(parts ...[][]uint64) topology.Loads {
	l := make(topology.Loads, c.t.NumNodes())
	for i, v := range c.t.ComputeNodes() {
		for _, p := range parts {
			l[v] += int64(len(p[i]))
		}
	}
	return l
}

func sizes(frags [][]uint64) int64 {
	var n int64
	for _, f := range frags {
		n += int64(len(f))
	}
	return n
}

func (c *Cluster) costOf(rep *netsim.Report, lb float64) Cost {
	cost := Cost{
		Rounds:     rep.NumRounds(),
		Cost:       rep.TotalCost(),
		LowerBound: lb,
		Elements:   rep.TotalElements(),
	}
	if c.exec.BitsPerElement > 0 {
		cost.Bits = rep.BitCost(c.exec.BitsPerElement)
	}
	return cost
}

// IntersectResult is the outcome of a distributed set intersection.
type IntersectResult struct {
	// Keys is the deduplicated sorted intersection R ∩ S.
	Keys []uint64
	// PerNode holds the keys emitted by each compute node.
	PerNode [][]uint64
	// Cost is the execution cost against the Theorem 1 lower bound.
	Cost Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// Intersect computes R ∩ S with the topology- and distribution-aware
// TreeIntersect protocol (Algorithm 2): one round, within O(log N·log|V|)
// of the instance optimum with high probability. r[i] and s[i] are the
// fragments initially held by compute node i.
func (c *Cluster) Intersect(r, s [][]uint64, seed uint64) (*IntersectResult, error) {
	if err := c.checkFragments("r", r); err != nil {
		return nil, err
	}
	if err := c.checkFragments("s", s); err != nil {
		return nil, err
	}
	res, err := intersect.Tree(c.t, dataset.Placement(r), dataset.Placement(s), seed, c.exec.netsimOpts()...)
	if err != nil {
		return nil, err
	}
	lb := lowerbound.Intersection(c.t, c.loads(r, s), sizes(r), sizes(s))
	return &IntersectResult{
		Keys:    res.Output,
		PerNode: res.PerNode,
		Cost:    c.costOf(res.Report, lb.Value),
		Report:  res.Report,
	}, nil
}

// IntersectBaseline computes R ∩ S with the topology-oblivious uniform
// hash join of the plain MPC model, for comparison.
func (c *Cluster) IntersectBaseline(r, s [][]uint64, seed uint64) (*IntersectResult, error) {
	if err := c.checkFragments("r", r); err != nil {
		return nil, err
	}
	if err := c.checkFragments("s", s); err != nil {
		return nil, err
	}
	res, err := intersect.UniformHash(c.t, dataset.Placement(r), dataset.Placement(s), seed, c.exec.netsimOpts()...)
	if err != nil {
		return nil, err
	}
	lb := lowerbound.Intersection(c.t, c.loads(r, s), sizes(r), sizes(s))
	return &IntersectResult{
		Keys:    res.Output,
		PerNode: res.PerNode,
		Cost:    c.costOf(res.Report, lb.Value),
		Report:  res.Report,
	}, nil
}

// CartesianResult is the outcome of a distributed cartesian product. The
// output pairs are not materialized; each node enumerates its rectangle of
// the |R| × |S| grid.
type CartesianResult struct {
	// Strategy is the routing strategy chosen ("whc", "tree", "gather",
	// "unequal", …).
	Strategy string
	// PairsPerNode is the number of output pairs each node enumerates.
	PairsPerNode []int64
	// RPerNode and SPerNode are the tuples available at each node for
	// enumeration.
	RPerNode, SPerNode [][]uint64
	// Rects is each node's assigned rectangle [X0,X1)×[Y0,Y1) of the
	// output grid, in fragment-index order.
	Rects []cartesian.Rect
	// Cost is the execution cost against max(Theorem 3, Theorem 4).
	Cost Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// CartesianProduct computes R × S. Equal-size inputs run the general
// symmetric-tree protocol of §4.4 (deterministic, one round, O(1)-optimal);
// unequal inputs run the generalized star algorithm of Appendix A.1 and
// therefore require a star cluster — the general unequal case is open
// (§4.5).
func (c *Cluster) CartesianProduct(r, s [][]uint64) (*CartesianResult, error) {
	if err := c.checkFragments("r", r); err != nil {
		return nil, err
	}
	if err := c.checkFragments("s", s); err != nil {
		return nil, err
	}
	var res *cartesian.Result
	var err error
	if sizes(r) == sizes(s) {
		res, err = cartesian.Tree(c.t, dataset.Placement(r), dataset.Placement(s), c.exec.netsimOpts()...)
	} else {
		res, err = cartesian.Unequal(c.t, dataset.Placement(r), dataset.Placement(s), c.exec.netsimOpts()...)
	}
	if err != nil {
		return nil, err
	}
	var lb float64
	if sizes(r) == sizes(s) {
		lb = lowerbound.Cartesian(c.t, c.loads(r, s)).Value
	} else {
		small := sizes(r)
		if sizes(s) < small {
			small = sizes(s)
		}
		lb = lowerbound.UnequalCartesianCut(c.t, c.loads(r, s), small).Value
	}
	pairs := make([]int64, len(res.Rects))
	for i, rect := range res.Rects {
		pairs[i] = rect.Area()
	}
	return &CartesianResult{
		Strategy:     res.Strategy,
		PairsPerNode: pairs,
		RPerNode:     res.RKeys,
		SPerNode:     res.SKeys,
		Rects:        res.Rects,
		Cost:         c.costOf(res.Report, lb),
		Report:       res.Report,
	}, nil
}

// SortResult is the outcome of a distributed sort.
type SortResult struct {
	// PerNode is each node's sorted output fragment.
	PerNode [][]uint64
	// NodeOrder is the valid left-to-right ordering the output respects,
	// as fragment indices.
	NodeOrder []int
	// Cost is the execution cost against the Theorem 6 lower bound.
	Cost Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// Sort redistributes the data so that node fragments are globally ordered
// along a left-to-right traversal of the tree, using weighted TeraSort
// (§5.2): at most four rounds, within O(1) of the instance optimum with
// high probability in the regime N ≥ 4|VC|²ln(|VC|·N).
func (c *Cluster) Sort(data [][]uint64, seed uint64) (*SortResult, error) {
	return c.sortWith(data, func(p dataset.Placement) (*sorting.Result, error) {
		return sorting.WTS(c.t, p, seed, c.exec.netsimOpts()...)
	})
}

// SortBaseline sorts with classic topology-oblivious TeraSort, for
// comparison.
func (c *Cluster) SortBaseline(data [][]uint64, seed uint64) (*SortResult, error) {
	return c.sortWith(data, func(p dataset.Placement) (*sorting.Result, error) {
		return sorting.TeraSort(c.t, p, seed, c.exec.netsimOpts()...)
	})
}

// SortAware sorts with the capacity-weighted splitter sort: key ranges are
// apportioned proportionally to each node's bandwidth capacity
// (place.Capacities via place.Splitters), so nodes behind weak cuts own
// small ranges and the sorted redistribution stops flooding thin uplinks.
// Three rounds. Complements Sort (weighted TeraSort), whose lever is the
// initial data sizes rather than the link bandwidths.
func (c *Cluster) SortAware(data [][]uint64, seed uint64) (*SortResult, error) {
	return c.sortWith(data, func(p dataset.Placement) (*sorting.Result, error) {
		return sorting.CapacitySort(c.t, p, seed, c.exec.netsimOpts()...)
	})
}

// SortAwareBaseline runs the identical splitter sort with uniform key
// ranges, as on a flat network — the controlled baseline for SortAware.
func (c *Cluster) SortAwareBaseline(data [][]uint64, seed uint64) (*SortResult, error) {
	return c.sortWith(data, func(p dataset.Placement) (*sorting.Result, error) {
		return sorting.CapacitySortFlat(c.t, p, seed, c.exec.netsimOpts()...)
	})
}

type fragmentIndexMemoKey struct{}

// fragmentIndex maps each compute node's NodeID to its fragment index (its
// position in ComputeNodes); built once per tree.
func (c *Cluster) fragmentIndex() []int {
	return c.t.Memo(fragmentIndexMemoKey{}, func() any {
		return c.t.OrderIndex(c.t.ComputeNodes())
	}).([]int)
}

func (c *Cluster) sortWith(data [][]uint64, run func(dataset.Placement) (*sorting.Result, error)) (*SortResult, error) {
	if err := c.checkFragments("data", data); err != nil {
		return nil, err
	}
	res, err := run(dataset.Placement(data))
	if err != nil {
		return nil, err
	}
	lb := lowerbound.Sorting(c.t, c.loads(data))
	idx := c.fragmentIndex()
	order := make([]int, 0, len(res.Order))
	for _, v := range res.Order {
		order = append(order, idx[v])
	}
	return &SortResult{
		PerNode:   res.PerNode,
		NodeOrder: order,
		Cost:      c.costOf(res.Report, lb.Value),
		Report:    res.Report,
	}, nil
}

// Tuple2 is one two-attribute relation row for the multiway joins. In the
// triangle query the attributes are the relation's two join attributes
// (R: (a,b), S: (b,c), T: (c,a)); in the star query A is the shared join
// attribute and B an opaque payload.
type Tuple2 struct {
	A, B uint64
}

// MultijoinResult is the outcome of a distributed multiway join. Output
// rows are enumerated and counted at the nodes, not materialized.
type MultijoinResult struct {
	// Outputs is the total number of output rows.
	Outputs int64
	// PerNode is the per-node share of the output.
	PerNode []int64
	// Shares is the HyperCube share grid used (triangle: [g_a,g_b,g_c];
	// star: [p]).
	Shares []int
	// CellsPerNode is the number of share-grid cells owned by each compute
	// node (triangle shape).
	CellsPerNode []int
	// Cost is the execution cost in wire elements (2 per tuple) against
	// the tuple-transfer cut bound (lowerbound.Multijoin).
	Cost Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// TriangleJoin computes the triangle join R(a,b) ⋈ S(b,c) ⋈ T(c,a) with
// the topology-aware HyperCube shuffle: share-grid cells are apportioned
// over the compute nodes proportionally to the bandwidth capacity of each
// node's subtree, so slabs stop spanning weak cuts. One round. The output
// count and checksum are verified against a centralized reference
// evaluation before returning.
func (c *Cluster) TriangleJoin(r, s, t [][]Tuple2, seed uint64) (*MultijoinResult, error) {
	return c.triangleWith(r, s, t, func(pr, ps, pt multijoin.Placement) (*multijoin.Result, error) {
		return multijoin.Triangle(c.t, pr, ps, pt, seed, c.exec.netsimOpts()...)
	})
}

// TriangleJoinBaseline computes the triangle join with flat HyperCube —
// uniformly weighted cells in compute-node order, as on a flat network —
// for comparison.
func (c *Cluster) TriangleJoinBaseline(r, s, t [][]Tuple2, seed uint64) (*MultijoinResult, error) {
	return c.triangleWith(r, s, t, func(pr, ps, pt multijoin.Placement) (*multijoin.Result, error) {
		return multijoin.TriangleFlat(c.t, pr, ps, pt, seed, c.exec.netsimOpts()...)
	})
}

func (c *Cluster) triangleWith(r, s, t [][]Tuple2,
	run func(pr, ps, pt multijoin.Placement) (*multijoin.Result, error)) (*MultijoinResult, error) {
	for _, in := range []struct {
		name  string
		frags [][]Tuple2
	}{{"r", r}, {"s", s}, {"t", t}} {
		if err := c.checkFragmentCount(in.name, len(in.frags)); err != nil {
			return nil, err
		}
	}
	pr, ps, pt := tuple2Placement(r), tuple2Placement(s), tuple2Placement(t)
	res, err := run(pr, ps, pt)
	if err != nil {
		return nil, err
	}
	ix := multijoin.IndexTriangle(pr, ps, pt)
	ref := ix.Reference()
	if got := res.TotalOutputs(); got != ref.Count || res.Checksum != ref.Checksum {
		return nil, fmt.Errorf("topompc: triangle join emitted %d rows (checksum %x), reference has %d (%x)",
			got, res.Checksum, ref.Count, ref.Checksum)
	}
	lb := lowerbound.Multijoin(c.t, ref.Count, ref.MaxDeg, ix.CutCounts(c.t))
	return c.multijoinResult(res, ref.Count, lb.Value), nil
}

// StarJoin computes the k-way star join R_1(a,b_1) ⋈ … ⋈ R_k(a,b_k) on
// the shared attribute a with capacity-weighted hashing (the HyperCube
// share vector of a star query degenerates to a hash partition of a). One
// round; output verified against a centralized reference evaluation.
func (c *Cluster) StarJoin(rels [][][]Tuple2, seed uint64) (*MultijoinResult, error) {
	return c.starWith(rels, func(ps []multijoin.Placement) (*multijoin.Result, error) {
		return multijoin.Star(c.t, ps, seed, c.exec.netsimOpts()...)
	})
}

// StarJoinBaseline computes the star join with topology-oblivious uniform
// hashing, for comparison.
func (c *Cluster) StarJoinBaseline(rels [][][]Tuple2, seed uint64) (*MultijoinResult, error) {
	return c.starWith(rels, func(ps []multijoin.Placement) (*multijoin.Result, error) {
		return multijoin.StarFlat(c.t, ps, seed, c.exec.netsimOpts()...)
	})
}

func (c *Cluster) starWith(rels [][][]Tuple2,
	run func([]multijoin.Placement) (*multijoin.Result, error)) (*MultijoinResult, error) {
	ps := make([]multijoin.Placement, len(rels))
	for j, rel := range rels {
		if err := c.checkFragmentCount(fmt.Sprintf("relation %d", j+1), len(rel)); err != nil {
			return nil, err
		}
		ps[j] = tuple2Placement(rel)
	}
	res, err := run(ps)
	if err != nil {
		return nil, err
	}
	ix := multijoin.IndexStar(ps)
	ref := ix.Reference()
	if got := res.TotalOutputs(); got != ref.Count || res.Checksum != ref.Checksum {
		return nil, fmt.Errorf("topompc: star join emitted %d rows (checksum %x), reference has %d (%x)",
			got, res.Checksum, ref.Count, ref.Checksum)
	}
	lb := lowerbound.Multijoin(c.t, ref.Count, ref.MaxDeg, ix.CutCounts(c.t))
	return c.multijoinResult(res, ref.Count, lb.Value), nil
}

func (c *Cluster) multijoinResult(res *multijoin.Result, outputs int64, lb float64) *MultijoinResult {
	return &MultijoinResult{
		Outputs:      outputs,
		PerNode:      res.PerNode,
		Shares:       res.Shares,
		CellsPerNode: res.CellsPerNode,
		Cost:         c.costOf(res.Report, lb),
		Report:       res.Report,
	}
}

func tuple2Placement(frags [][]Tuple2) multijoin.Placement {
	out := make(multijoin.Placement, len(frags))
	for i, frag := range frags {
		out[i] = make([]multijoin.Tuple, len(frag))
		for j, tp := range frag {
			out[i][j] = multijoin.Tuple{A: tp.A, B: tp.B}
		}
	}
	return out
}

// LowerBounds reports the three task lower bounds for a hypothetical input
// with the given per-node fragment sizes (nR[i], nS[i] for the two
// relations; sorting uses their sum).
func (c *Cluster) LowerBounds(nR, nS []int64) (intersection, cartesianLB, sortLB float64, err error) {
	if len(nR) != c.t.NumCompute() || len(nS) != c.t.NumCompute() {
		return 0, 0, 0, fmt.Errorf("topompc: sizes cover %d/%d nodes, cluster has %d",
			len(nR), len(nS), c.t.NumCompute())
	}
	loads := make(topology.Loads, c.t.NumNodes())
	var totR, totS int64
	for i, v := range c.t.ComputeNodes() {
		loads[v] = nR[i] + nS[i]
		totR += nR[i]
		totS += nS[i]
	}
	intersection = lowerbound.Intersection(c.t, loads, totR, totS).Value
	cartesianLB = lowerbound.Cartesian(c.t, loads).Value
	sortLB = lowerbound.Sorting(c.t, loads).Value
	return intersection, cartesianLB, sortLB, nil
}

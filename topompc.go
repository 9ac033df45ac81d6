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
// measured against, plus extension tasks built on them (joins,
// aggregation, multiway joins, graph connectivity). Every call — a typed
// Cluster method or the same task run by name through RunTask — goes
// through its protocol family's one pipeline: it executes the full protocol
// on a built-in network cost simulator, verifies the output, and returns
// the verified output together with the cost accounting against the
// instance lower bound. What each family checks against:
//
//   - intersection: the hashed reference R ∩ S, key for key;
//   - cartesian product: the rectangles cover the |R| × |S| grid and every
//     node holds exactly the rows and columns its rectangle spans;
//   - sorting: fragments ascending along a node order that lists every node
//     once, and a permutation of the input;
//   - join: the reference output size |R ⋈ S|;
//   - aggregation: every reference group total, produced at exactly one
//     node;
//   - multiway joins: row count and output checksum of a centralized
//     reference evaluation;
//   - connectivity: component count and labeling checksum of a union-find
//     reference, and for a spanning forest that it spans it without cycles.
//
// A failed check is an error, never a result. The reference and the lower
// bound are functions of the input alone and the model charges communication
// only, so with more than one worker (ExecOptions.Workers) a pipeline
// computes both on one extra goroutine while the protocol executes — the way
// the engine hands the serial remainder of a round to one — and compares once
// both are done; with one worker it runs, verifies and bounds in turn.
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
	"topompc/internal/par"
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
	// round accounting; 0 means one per available CPU. With more than one, a
	// task also verifies beside its run: one extra goroutine computes the
	// reference output and the lower bound from the input while the protocol
	// executes. Every result is the same at every worker count.
	Workers int
	// Tracer, when non-nil, attaches the flight recorder: every engine the
	// protocols create emits one span per round it runs, named by the
	// round's label — the protocol step or the planned candidate — with its
	// cost and bottleneck edge, one netsim.plan instant per planner
	// decision, and its worker pool's shards, all into this sink (typically
	// an obs.Trace exported as Chrome trace-event JSON). Protocols emit
	// nothing of their own. Nil keeps tracing disabled at zero overhead.
	Tracer obs.Tracer
	// Metrics, when non-nil, collects counters/gauges/histograms across all
	// protocol executions for snapshotting into benchmark records: the
	// engine's netsim.* and par.*, and the graph.* and aggregate.* counters
	// the protocols feed through the engine's registry.
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
// k/w. At b bits per element (the paper's log N wire width) the cost in
// bits is Cost × b.
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
}

// Ratio reports Cost / LowerBound (1 when both are zero).
func (c Cost) Ratio() float64 { return netsim.Ratio(c.Cost, c.LowerBound) }

// checkFragments rejects an input that does not have one fragment per
// compute node.
func (c *Cluster) checkFragments(name string, n int) error {
	if n != c.t.NumCompute() {
		return fmt.Errorf("topompc: %s has %d fragments, cluster has %d compute nodes",
			name, n, c.t.NumCompute())
	}
	return nil
}

// checkPair is checkFragments for the two relations of a pair task.
func (c *Cluster) checkPair(r, s int) error {
	if err := c.checkFragments("r", r); err != nil {
		return err
	}
	return c.checkFragments("s", s)
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

func sizes[T any](frags [][]T) int64 {
	var n int64
	for _, f := range frags {
		n += int64(len(f))
	}
	return n
}

func costOf(rep *netsim.Report, lb float64) Cost {
	return Cost{
		Rounds:     rep.NumRounds(),
		Cost:       rep.TotalCost(),
		LowerBound: lb,
		Elements:   rep.TotalElements(),
	}
}

// verified is the middle of every family's pipeline: it runs the protocol,
// computes what the output is expected to be — the reference to verify against
// and the lower bound, both functions of the input alone — and returns the
// result only if verify accepts it against that reference. With more than one
// worker the expectation is computed beside the run (par.Beside), so expect
// must not write to the fragments the protocol reads, and it must be total on
// every input that reaches it: it may start before run has rejected anything,
// so a pipeline makes every check expect relies on before calling verified.
func verified[Res, Ref any](
	c *Cluster,
	run func(opts ...netsim.Option) (*Res, error),
	expect func() (Ref, float64),
	verify func(Ref, *Res) error,
) (*Res, float64, error) {
	var (
		ref Ref
		lb  float64
	)
	res, err := par.Beside(c.exec.Workers, func() (*Res, error) {
		return run(c.exec.netsimOpts()...)
	}, func() { ref, lb = expect() })
	if err == nil {
		err = verify(ref, res)
	}
	if err != nil {
		return nil, 0, err
	}
	return res, lb, nil
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
	return c.intersectWith(r, s, seed, intersect.Tree)
}

// IntersectBaseline computes R ∩ S with the topology-oblivious uniform
// hash join of the plain MPC model, for comparison.
func (c *Cluster) IntersectBaseline(r, s [][]uint64, seed uint64) (*IntersectResult, error) {
	return c.intersectWith(r, s, seed, intersect.UniformHash)
}

// intersectProtocol is the entry point every set-intersection variant
// shares.
type intersectProtocol func(t *topology.Tree, r, s dataset.Placement, seed uint64, opts ...netsim.Option) (*intersect.Result, error)

// intersectWith is the set-intersection pipeline: the output is verified
// against the hashed reference intersection and costed against Theorem 1.
func (c *Cluster) intersectWith(r, s [][]uint64, seed uint64, run intersectProtocol) (*IntersectResult, error) {
	if err := c.checkPair(len(r), len(s)); err != nil {
		return nil, err
	}
	res, lb, err := verified(c, func(opts ...netsim.Option) (*intersect.Result, error) {
		return run(c.t, r, s, seed, opts...)
	}, func() ([]uint64, float64) {
		return intersect.Reference(r, s), lowerbound.Intersection(c.t, c.loads(r, s), sizes(r), sizes(s)).Value
	}, intersect.Verify)
	if err != nil {
		return nil, err
	}
	return &IntersectResult{
		Keys:    res.Output,
		PerNode: res.PerNode,
		Cost:    costOf(res.Report, lb),
		Report:  res.Report,
	}, nil
}

func intersectTask(run intersectProtocol) func(*Cluster, TaskInput) (*TaskResult, error) {
	return func(c *Cluster, in TaskInput) (*TaskResult, error) {
		res, err := c.intersectWith(in.R, in.S, in.Seed, run)
		if err != nil {
			return nil, err
		}
		return &TaskResult{
			Summary: fmt.Sprintf("|R|=%d |S|=%d |R∩S|=%d", sizes(in.R), sizes(in.S), len(res.Keys)),
			Cost:    res.Cost,
			Report:  res.Report,
		}, nil
	}
}

// CartesianResult is the outcome of a distributed cartesian product. The
// output pairs are not materialized; each node enumerates its rectangle of
// the |R| × |S| grid.
type CartesianResult struct {
	// Strategy is the layout that ran: "tree" or "gather" for equal sizes;
	// "gather", "broadcast" or "unequal" (the column-and-strip packing),
	// whichever prices cheapest, for unequal sizes; "empty" when a relation
	// is empty.
	Strategy string
	// PairsPerNode is the number of output pairs each node enumerates.
	PairsPerNode []int64
	// RPerNode and SPerNode are the tuples available at each node for
	// enumeration.
	RPerNode, SPerNode [][]uint64
	// Rects is each node's assigned rectangle [X0,X1)×[Y0,Y1) of the
	// output grid, in fragment-index order.
	Rects []cartesian.Rect
	// Cost is the execution cost against max(Theorem 3, Theorem 4) for
	// equal sizes, against the unequal-size bound otherwise.
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
	if err := c.checkPair(len(r), len(s)); err != nil {
		return nil, err
	}
	run, lb := c.cartesianCase(c.loads(r), c.loads(s))
	return c.cartesianWith(r, s, run, lb)
}

// cartesianProtocol is the entry point of the cartesian-product protocols.
type cartesianProtocol func(t *topology.Tree, r, s dataset.Placement, opts ...netsim.Option) (*cartesian.Result, error)

// cartesianCase is the one place the equal/unequal decision lives: the
// protocol for the given per-relation loads together with the lower bound
// that holds for them. Theorems 3+4 assume |R| = |S|; unequal sizes get
// the cut bound on the smaller relation, and on a star the larger of that
// and Theorem 9's coverage term (lowerbound.UnequalCartesian).
func (c *Cluster) cartesianCase(loadsR, loadsS topology.Loads) (cartesianProtocol, float64) {
	loads := make(topology.Loads, len(loadsR))
	var excess int64 // |R| − |S|
	for v := range loads {
		loads[v] = loadsR[v] + loadsS[v]
		excess += loadsR[v] - loadsS[v]
	}
	if excess == 0 {
		return cartesian.Tree, lowerbound.Cartesian(c.t, loads).Value
	}
	return cartesian.Unequal, lowerbound.UnequalCartesian(c.t, loadsR, loadsS)
}

// cartesianWith is the second half of the cartesian-product pipeline, after
// CartesianProduct has checked the fragments and picked the case: the
// result is verified geometrically — the rectangles cover the grid and
// every node received exactly the rows and columns its rectangle spans.
// The check reads the result throughout and the bound is already there, so
// this pipeline has nothing to compute beside the run and does not fork.
func (c *Cluster) cartesianWith(r, s [][]uint64, run cartesianProtocol, lb float64) (*CartesianResult, error) {
	res, err := run(c.t, r, s, c.exec.netsimOpts()...)
	if err != nil {
		return nil, err
	}
	if err := cartesian.Verify(r, s, res); err != nil {
		return nil, err
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
		Cost:         costOf(res.Report, lb),
		Report:       res.Report,
	}, nil
}

func cartesianTask(c *Cluster, in TaskInput) (*TaskResult, error) {
	res, err := c.CartesianProduct(in.R, in.S)
	if err != nil {
		return nil, err
	}
	var pairs int64
	for _, p := range res.PairsPerNode {
		pairs += p
	}
	return &TaskResult{
		Summary: fmt.Sprintf("|R|=%d |S|=%d pairs=%d strategy=%s", sizes(in.R), sizes(in.S), pairs, res.Strategy),
		Cost:    res.Cost,
		Report:  res.Report,
	}, nil
}

// SortResult is the outcome of a distributed sort.
type SortResult struct {
	// PerNode is each node's sorted output fragment.
	PerNode [][]uint64
	// NodeOrder is the valid left-to-right ordering the output respects,
	// as fragment indices.
	NodeOrder []int
	// Strategy names the candidate the sort driver ran: the priced winner,
	// "wts" or "gather" (Sort) and "sort-aware", "sort-flat", "gather" or
	// "wts" (SortAware); "terasort" (SortBaseline); "sort-flat"
	// (SortAwareBaseline).
	Strategy string
	// Cost is the execution cost against the Theorem 6 lower bound.
	Cost Cost
	// Report is the per-round cost accounting of the execution.
	Report *netsim.Report
}

// Sort redistributes the data so that node fragments are globally ordered
// along a left-to-right traversal of the tree. It prices two plans on the
// actual input and runs the cheaper: weighted TeraSort (§5.2, "wts"), at
// most four rounds and within O(1) of the instance optimum with high
// probability in the regime N ≥ 4|VC|²ln(|VC|·N), and a one-round gather at
// the node where it costs least ("gather"), which wins on small or
// concentrated inputs; ties go to the gather. SortResult.Strategy names the winner.
func (c *Cluster) Sort(data [][]uint64, seed uint64) (*SortResult, error) {
	return c.sortWith(data, seed, sorting.WTS)
}

// SortBaseline sorts with classic topology-oblivious TeraSort, for
// comparison.
func (c *Cluster) SortBaseline(data [][]uint64, seed uint64) (*SortResult, error) {
	return c.sortWith(data, seed, sorting.TeraSort)
}

// SortAware is the planned sort: it prices four plans on the actual input
// and runs the cheapest. The candidates are the capacity-weighted splitter
// sort ("sort-aware": key ranges apportioned by each node's bandwidth
// capacity, so nodes behind weak cuts own small ranges), the same sort with
// uniform ranges ("sort-flat", SortAwareBaseline), a one-round gather at the
// node where it costs least ("gather"), which wins when most data already
// sits behind a weak cut, and weighted TeraSort ("wts"). Ties go to fewer rounds, then
// to that order; SortResult.Strategy names the winner. It never costs more
// than SortAwareBaseline on the same input.
func (c *Cluster) SortAware(data [][]uint64, seed uint64) (*SortResult, error) {
	return c.sortWith(data, seed, sorting.CapacitySort)
}

// SortAwareBaseline runs the three-round splitter sort with uniform key
// ranges and the leftmost coordinator, as on a flat network: SortAware's
// uniform candidate, run unpriced, and its baseline.
func (c *Cluster) SortAwareBaseline(data [][]uint64, seed uint64) (*SortResult, error) {
	return c.sortWith(data, seed, sorting.CapacitySortFlat)
}

type fragmentIndexMemoKey struct{}

// fragmentIndex maps each compute node's NodeID to its fragment index (its
// position in ComputeNodes); built once per tree.
func (c *Cluster) fragmentIndex() []int {
	return c.t.Memo(fragmentIndexMemoKey{}, func() any {
		return c.t.OrderIndex(c.t.ComputeNodes())
	}).([]int)
}

// sortProtocol is the entry point every sorting variant shares.
type sortProtocol func(t *topology.Tree, data dataset.Placement, seed uint64, opts ...netsim.Option) (*sorting.Result, error)

// sortWith is the sorting pipeline: the output must be ascending along a
// node order that lists every node once and be a permutation of the input
// (sorting.Verify); it is costed against Theorem 6.
func (c *Cluster) sortWith(data [][]uint64, seed uint64, run sortProtocol) (*SortResult, error) {
	if err := c.checkFragments("data", len(data)); err != nil {
		return nil, err
	}
	res, lb, err := verified(c, func(opts ...netsim.Option) (*sorting.Result, error) {
		return run(c.t, data, seed, opts...)
	}, func() ([]uint64, float64) {
		return sorting.Reference(data), lowerbound.Sorting(c.t, c.loads(data)).Value
	}, func(ref []uint64, res *sorting.Result) error { return sorting.Verify(c.t, ref, res) })
	if err != nil {
		return nil, err
	}
	idx := c.fragmentIndex()
	order := make([]int, 0, len(res.Order))
	for _, v := range res.Order {
		order = append(order, idx[v])
	}
	return &SortResult{
		PerNode:   res.PerNode,
		NodeOrder: order,
		Strategy:  res.Strategy,
		Cost:      costOf(res.Report, lb),
		Report:    res.Report,
	}, nil
}

func sortTask(run sortProtocol) func(*Cluster, TaskInput) (*TaskResult, error) {
	return func(c *Cluster, in TaskInput) (*TaskResult, error) {
		res, err := c.sortWith(in.Data, in.Seed, run)
		if err != nil {
			return nil, err
		}
		return &TaskResult{
			Summary: fmt.Sprintf("N=%d nodes=%d strategy=%s", sizes(in.Data), len(res.PerNode), res.Strategy),
			Cost:    res.Cost,
			Report:  res.Report,
		}, nil
	}
}

// Tuple2 is one two-attribute relation row for the multiway joins. In the
// triangle query the attributes are the relation's two join attributes
// (R: (a,b), S: (b,c), T: (c,a)); in the star query A is the shared join
// attribute and B an opaque payload.
type Tuple2 = multijoin.Tuple

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
	return c.multijoinWith([][][]Tuple2{r, s, t}, seed, triangleShape(multijoin.Triangle))
}

// TriangleJoinBaseline computes the triangle join with flat HyperCube —
// uniformly weighted cells in compute-node order, as on a flat network —
// for comparison.
func (c *Cluster) TriangleJoinBaseline(r, s, t [][]Tuple2, seed uint64) (*MultijoinResult, error) {
	return c.multijoinWith([][][]Tuple2{r, s, t}, seed, triangleShape(multijoin.TriangleFlat))
}

// StarJoin computes the k-way star join R_1(a,b_1) ⋈ … ⋈ R_k(a,b_k) on
// the shared attribute a with capacity-weighted hashing (the HyperCube
// share vector of a star query degenerates to a hash partition of a). One
// round; output verified against a centralized reference evaluation.
func (c *Cluster) StarJoin(rels [][][]Tuple2, seed uint64) (*MultijoinResult, error) {
	return c.multijoinWith(rels, seed, starShape(multijoin.Star))
}

// StarJoinBaseline computes the star join with topology-oblivious uniform
// hashing, for comparison.
func (c *Cluster) StarJoinBaseline(rels [][][]Tuple2, seed uint64) (*MultijoinResult, error) {
	return c.multijoinWith(rels, seed, starShape(multijoin.StarFlat))
}

// starProtocol and triangleProtocol are the entry points of the two query
// shapes' variants.
type (
	starProtocol     func(t *topology.Tree, rels []multijoin.Placement, seed uint64, opts ...netsim.Option) (*multijoin.Result, error)
	triangleProtocol func(t *topology.Tree, r, s, tt multijoin.Placement, seed uint64, opts ...netsim.Option) (*multijoin.Result, error)
)

// multijoinIndex is an input indexed once for both the reference evaluation
// and the per-edge cut counts of the bound (multijoin.TriangleIndex,
// multijoin.StarIndex).
type multijoinIndex interface {
	Reference() multijoin.RefStats
	CutCounts(*topology.Tree) func(topology.EdgeID) (below, above int64)
}

// multijoinShape is what tells the two query shapes apart to the pipeline:
// how to run a protocol over the relations and how to index them. arity,
// when set, is the one relation count run and index take; the pipeline
// checks it first, since index may start before run has.
type multijoinShape struct {
	arity int
	run   starProtocol
	index func(rels []multijoin.Placement) multijoinIndex
}

func starShape(run starProtocol) multijoinShape {
	return multijoinShape{
		run:   run,
		index: func(rels []multijoin.Placement) multijoinIndex { return multijoin.IndexStar(rels) },
	}
}

func triangleShape(run triangleProtocol) multijoinShape {
	return multijoinShape{
		arity: 3,
		run: func(t *topology.Tree, rels []multijoin.Placement, seed uint64, opts ...netsim.Option) (*multijoin.Result, error) {
			return run(t, rels[0], rels[1], rels[2], seed, opts...)
		},
		index: func(rels []multijoin.Placement) multijoinIndex {
			return multijoin.IndexTriangle(rels[0], rels[1], rels[2])
		},
	}
}

// multijoinWith is the multiway-join pipeline: the input is indexed once,
// the output count and checksum are verified against the index's reference
// evaluation (multijoin.Verify), and the same index supplies the cut
// counts of the tuple-transfer bound.
func (c *Cluster) multijoinWith(rels [][][]Tuple2, seed uint64, shape multijoinShape) (*MultijoinResult, error) {
	if shape.arity != 0 && len(rels) != shape.arity {
		return nil, fmt.Errorf("multijoin: needs exactly %d relations, got %d", shape.arity, len(rels))
	}
	ps := make([]multijoin.Placement, len(rels))
	for j, rel := range rels {
		if err := c.checkFragments(fmt.Sprintf("relation %d", j+1), len(rel)); err != nil {
			return nil, err
		}
		ps[j] = rel
	}
	res, lb, err := verified(c, func(opts ...netsim.Option) (*multijoin.Result, error) {
		return shape.run(c.t, ps, seed, opts...)
	}, func() (multijoin.RefStats, float64) {
		ix := shape.index(ps)
		ref := ix.Reference()
		return ref, lowerbound.Multijoin(c.t, ref.Count, ref.MaxDeg, ix.CutCounts(c.t)).Value
	}, multijoin.Verify)
	if err != nil {
		return nil, err
	}
	return &MultijoinResult{
		Outputs:      res.TotalOutputs(),
		PerNode:      res.PerNode,
		Shares:       res.Shares,
		CellsPerNode: res.CellsPerNode,
		Cost:         costOf(res.Report, lb),
		Report:       res.Report,
	}, nil
}

// multijoinTask names the output rows of the shape ("triangles", "rows")
// in the summary.
func multijoinTask(unit string, shape multijoinShape) func(*Cluster, TaskInput) (*TaskResult, error) {
	return func(c *Cluster, in TaskInput) (*TaskResult, error) {
		rels := make([][][]Tuple2, len(in.Rels))
		var total int64
		for j, rel := range in.Rels {
			rels[j] = decodeFrags(rel, DecodeTuple2)
			total += sizes(rel)
		}
		res, err := c.multijoinWith(rels, in.Seed, shape)
		if err != nil {
			return nil, err
		}
		return &TaskResult{
			Summary: fmt.Sprintf("k=%d N=%d %s=%d shares=%v", len(in.Rels), total, unit, res.Outputs, res.Shares),
			Cost:    res.Cost,
			Report:  res.Report,
		}, nil
	}
}

// LowerBounds reports the three task lower bounds for a hypothetical input
// with the given per-node fragment sizes (nR[i], nS[i] for the two
// relations; sorting uses their sum). The cartesian bound is the one
// CartesianProduct reports for those sizes: Theorems 3+4 when |R| = |S|,
// the unequal-size bound otherwise (the cut, and on a star Theorem 9's
// coverage term when larger).
func (c *Cluster) LowerBounds(nR, nS []int64) (intersection, cartesianLB, sortLB float64, err error) {
	if len(nR) != c.t.NumCompute() || len(nS) != c.t.NumCompute() {
		return 0, 0, 0, fmt.Errorf("topompc: sizes cover %d/%d nodes, cluster has %d",
			len(nR), len(nS), c.t.NumCompute())
	}
	loads := make(topology.Loads, c.t.NumNodes())
	loadsR := make(topology.Loads, c.t.NumNodes())
	loadsS := make(topology.Loads, c.t.NumNodes())
	var totR, totS int64
	for i, v := range c.t.ComputeNodes() {
		loads[v], loadsR[v], loadsS[v] = nR[i]+nS[i], nR[i], nS[i]
		totR += nR[i]
		totS += nS[i]
	}
	intersection = lowerbound.Intersection(c.t, loads, totR, totS).Value
	_, cartesianLB = c.cartesianCase(loadsR, loadsS)
	sortLB = lowerbound.Sorting(c.t, loads).Value
	return intersection, cartesianLB, sortLB, nil
}

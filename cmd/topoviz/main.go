// Command topoviz inspects the structural constructions of the paper for a
// topology and load vector: the tree itself, the directed tree G†
// (Figure 3), the minimum-Σw² minimal cover (Theorem 4), the α/β edge
// classification and balanced partition (Figure 2), the placement engine's
// capacity weights and recursive weak-cut hierarchy (depth, per-level
// cuts, blocks, combiners and combining-pays marks), and
// the square packing of the cartesian product (Figure 4).
//
// With -task it additionally runs that registry task and renders a round
// waterfall from its report: one bar per executed exchange round, scaled to
// the per-round max-edge cost, annotated with the bottleneck link.
//
// Usage:
//
//	topoviz -topo twotier -loads 40,40,40,40,40,40,40,40,40,40,40,40 -sizeR 50
//	topoviz -topo @cluster.json
//	topoviz -topo caterpillar-grade -task cc -n 3000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"topompc"
	"topompc/internal/cliutil"
	"topompc/internal/core/cartesian"
	"topompc/internal/core/place"
	"topompc/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and streams; it
// returns the process exit code. Split from main so the flag handling and
// output are testable, matching cmd/toposim and cmd/topobench.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topoviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo     = fs.String("topo", "twotier", "topology: star:PxW, twotier, fattree, caterpillar, fattree-taper, caterpillar-grade, or @file.json")
		loadsCSV = fs.String("loads", "", "comma-separated N_v per compute node (default: 100 each)")
		sizeR    = fs.Int64("sizeR", 0, "|R| for the α/β classification (default N/4)")
		task     = fs.String("task", "", "run this registry task and render its round waterfall")
		taskN    = fs.Int("n", 3000, "with -task: total input size")
		placeFn  = fs.String("place", "uniform", "with -task: placement (uniform, zipf, oneheavy, single)")
		seed     = fs.Int64("seed", 42, "with -task: random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	tree, err := cliutil.ParseTopo(*topo)
	if err != nil {
		return fail(stderr, err)
	}

	sizes := make([]int64, tree.NumCompute())
	if *loadsCSV == "" {
		for i := range sizes {
			sizes[i] = 100
		}
	} else {
		parts := strings.Split(*loadsCSV, ",")
		if len(parts) != len(sizes) {
			return fail(stderr, fmt.Errorf("%d loads for %d compute nodes", len(parts), len(sizes)))
		}
		for i, s := range parts {
			sizes[i], err = strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return fail(stderr, err)
			}
		}
	}
	loads, err := tree.ComputeLoads(sizes)
	if err != nil {
		return fail(stderr, err)
	}
	total := loads.Total()
	r := *sizeR
	if r == 0 {
		r = total / 4
	}

	fmt.Fprintln(stdout, "== topology ==")
	fmt.Fprint(stdout, tree)

	fmt.Fprintln(stdout, "\n== G† (Figure 3 / Lemma 4) ==")
	d := topology.Orient(tree, loads)
	fmt.Fprint(stdout, d.StringDirected())
	fmt.Fprintf(stdout, "root is compute node: %v\n", d.RootIsCompute())

	if cover, wTilde, ok := d.MinCoverSumSq(); ok {
		names := make([]string, len(cover))
		for i, v := range cover {
			names[i] = tree.Name(v)
		}
		fmt.Fprintf(stdout, "\n== minimum-Σw² minimal cover (Theorem 4) ==\n{%s}  w̃ = %.3f  cover LB = N/w̃ = %.3f\n",
			strings.Join(names, ", "), wTilde, float64(total)/wTilde)
	} else {
		fmt.Fprintln(stdout, "\nTheorem 4 does not apply (G† rooted at a compute node); gather is optimal")
	}

	fmt.Fprintf(stdout, "\n== α/β edges for |R| = %d (Figure 2) ==\n", r)
	classes := place.ClassifyEdges(tree, loads, r)
	cuts := tree.Cuts(loads)
	for e := topology.EdgeID(0); int(e) < tree.NumEdges(); e++ {
		a, b := tree.Endpoints(e)
		cls := "α"
		if classes[e] == place.Beta {
			cls = "β"
		}
		fmt.Fprintf(stdout, "  %s—%s: %s (cut min %d)\n", tree.Name(a), tree.Name(b), cls, cuts[e].Min())
	}

	blocks, err := place.BalancedPartition(tree, loads, r)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, "\n== balanced partition (Algorithm 3 / Definition 1) ==")
	for i, blk := range blocks {
		names := make([]string, len(blk))
		var w int64
		for j, v := range blk {
			names[j] = tree.Name(v)
			w += loads[v]
		}
		fmt.Fprintf(stdout, "  block %d: {%s}  ΣN_v = %d\n", i+1, strings.Join(names, ", "), w)
	}
	if err := place.CheckBalanced(tree, loads, r, blocks); err != nil {
		fmt.Fprintf(stdout, "  Definition 1 check: VIOLATED: %v\n", err)
	} else {
		fmt.Fprintln(stdout, "  Definition 1 check: all properties hold")
	}

	fmt.Fprintln(stdout, "\n== placement engine (internal/core/place) ==")
	weights := place.Capacities(tree)
	nodes := tree.ComputeNodes()
	fmt.Fprintln(stdout, "  capacity weights:")
	for i, v := range nodes {
		fmt.Fprintf(stdout, "    %s: %.3f\n", tree.Name(v), weights[i])
	}
	if h := place.HierarchyFor(tree); h != nil {
		pays := h.CombinePays(weights)
		fmt.Fprintf(stdout, "  weak-cut hierarchy: depth %d\n", h.Depth())
		for k, plan := range h.Levels {
			fmt.Fprintf(stdout, "    level %d (weak cut: edges below %.4g):\n", k, h.Thresholds[k])
			for b, members := range plan.Blocks {
				names := make([]string, len(members))
				for j, i := range members {
					names[j] = tree.Name(nodes[i])
				}
				note := ""
				if pays[k][b] {
					note = "  (combining pays)"
				}
				fmt.Fprintf(stdout, "      block %d: {%s}  combiner %s%s\n",
					b+1, strings.Join(names, ", "), tree.Name(nodes[plan.Combiner[b]]), note)
			}
		}
	} else {
		fmt.Fprintln(stdout, "  weak-cut hierarchy: none (bandwidth-uniform within a factor 2)")
	}

	fmt.Fprintln(stdout, "\n== cartesian square packing (Figure 4 / Algorithm 5) ==")
	sides := make([]int64, 0, tree.NumCompute())
	owners := make([]topology.NodeID, 0, tree.NumCompute())
	for _, v := range tree.ComputeNodes() {
		// Bandwidth-proportional power-of-two sides, as in §4.2.
		_, e := tree.Parent(v)
		side := int64(1)
		for side < int64(tree.Bandwidth(e)*8) {
			side <<= 1
		}
		sides = append(sides, side)
		owners = append(owners, v)
	}
	placed, covered, err := cartesian.PackLemma5(sides, owners)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "  fully covered square: %d×%d\n", covered, covered)
	for _, p := range placed {
		fmt.Fprintf(stdout, "  %s: %d×%d at (%d, %d)\n", tree.Name(p.Node), p.Side, p.Side, p.X, p.Y)
	}

	if *task != "" {
		if err := waterfall(stdout, tree, *task, *placeFn, *taskN, *seed); err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

// waterfall runs one registry task and renders the executed exchange
// rounds of its report as a bar chart of the per-round max-edge cost (the
// quantity the paper's cost model charges), annotated with each round's
// bottleneck link. Rounds appear in execution order, so hierarchy levels
// and Borůvka phases read top to bottom as they ran.
func waterfall(stdout io.Writer, tree *topology.Tree, taskName, placeName string, n int, seed int64) error {
	spec, ok := topompc.LookupTask(taskName)
	if !ok {
		return fmt.Errorf("unknown task %q (see toposim -list-tasks)", taskName)
	}
	cluster := topompc.NewCluster(tree)
	rng := rand.New(rand.NewSource(seed))
	placer, err := cliutil.Placer(placeName, seed)
	if err != nil {
		return fmt.Errorf("-place: %w", err)
	}
	in, err := cliutil.TaskData(spec, rng, placer, cluster.NumNodes(), n, 0, 0, uint64(seed))
	if err != nil {
		return err
	}
	res, err := cluster.RunTask(spec.Name, in)
	if err != nil {
		return err
	}

	rounds := res.Report.Rounds
	var maxCost, sum float64
	for _, rd := range rounds {
		sum += rd.Cost
		maxCost = max(maxCost, rd.Cost)
	}

	fmt.Fprintf(stdout, "\n== round waterfall (%s, n=%d, place=%s, seed=%d) ==\n",
		spec.Name, n, placeName, seed)
	fmt.Fprintf(stdout, "  %s\n", res.Summary)
	const width = 40
	for _, rd := range rounds {
		bar := 0
		if maxCost > 0 {
			bar = int(rd.Cost / maxCost * width)
		}
		if bar == 0 && rd.Cost > 0 {
			bar = 1
		}
		link := ""
		if rd.BottleneckEdge != topology.NoEdge {
			a, b := res.Report.Tree.Endpoints(rd.BottleneckEdge)
			link = "  via " + res.Report.Tree.Name(a) + "–" + res.Report.Tree.Name(b)
		}
		fmt.Fprintf(stdout, "  round %3d %10.1f  %-*s%s\n", rd.Index, rd.Cost, width, strings.Repeat("█", bar), link)
	}
	fmt.Fprintf(stdout, "  total cost %.3f over %d rounds (reported %.3f)\n", sum, len(rounds), res.Cost.Cost)
	return nil
}

// fail reports err and returns the exit code: 2 for a bad -place, as for
// any other bad flag value, 1 otherwise.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "topoviz: %v\n", err)
	if errors.Is(err, cliutil.ErrUnknownPlacement) {
		return 2
	}
	return 1
}

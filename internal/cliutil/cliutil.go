// Package cliutil holds the small shared helpers of the command-line
// tools: textual topology specs and placement selection.
package cliutil

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"topompc/internal/dataset"
	"topompc/internal/topology"
)

// ParseTopo resolves a topology argument:
//
//	star:PxW           star with P compute nodes, bandwidth W each
//	twotier            4+4+4 nodes behind 4/2/1 uplinks
//	fattree            2-level fanout-3 fat tree
//	caterpillar        5-spine caterpillar
//	fattree-taper      3-level tapered fat tree (thin core; depth-2 hierarchy)
//	caterpillar-grade  graded caterpillar (0.5× middle cut; depth-2 hierarchy)
//	mesh               4x4 compute lattice (general network, via cut tree)
//	ring-of-racks      4-rack ring, 2 nodes per rack (general network)
//	clos               2-spine 3-leaf fabric (general network)
//	fanout             12-node randomized overlay, fanout 2 (general network)
//	@file.json         a topology.Spec JSON file (tree or general network)
//
// General networks — the named graph topologies and any @file spec whose
// edge set is not a tree — are compressed to their Gomory–Hu
// equivalent-cut tree with topology.FromGraph before protocols run.
//
// A file is read as a tree first; exactly when that fails with
// topology.ErrNotTree (edge count, cycle or duplicate link) is it read as a
// general network. Either way a malformed file fails with the file name
// and an error that names the offending entry and wraps one of topology's
// named sentinels.
//
// opts (e.g. topology.FromGraphTracer) apply to the cut-tree compression
// of general networks; tree specs construct directly and ignore them.
func ParseTopo(spec string, opts ...topology.FromGraphOption) (*topology.Tree, error) {
	switch {
	case strings.HasPrefix(spec, "@"):
		path := spec[1:]
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s topology.Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		t, err := topology.FromSpec(s)
		if errors.Is(err, topology.ErrNotTree) {
			t, err = graphTopoOpts(opts)(topology.GraphFromSpec(s))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return t, nil
	case strings.HasPrefix(spec, "star:"):
		parts := strings.SplitN(spec[5:], "x", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("star spec must be star:PxW, got %q", spec)
		}
		p, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("star spec %q: %w", spec, err)
		}
		w, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("star spec %q: %w", spec, err)
		}
		return topology.UniformStar(p, w)
	case spec == "twotier":
		return topology.TwoTier([]int{4, 4, 4}, []float64{4, 2, 1}, 8)
	case spec == "fattree":
		return topology.FatTree(2, 3, 2, 3)
	case spec == "caterpillar":
		return topology.Caterpillar([]float64{1, 2, 4, 2, 1}, 4)
	case spec == "fattree-taper":
		// Tapered (oversubscribed) fat-tree: thin core links, depth-2
		// weak-cut hierarchy (pods then racks).
		return topology.FatTree(3, 2, 16, 0.25)
	case spec == "caterpillar-grade":
		// Graded caterpillar: the spine weakens toward a 0.5× middle cut,
		// depth-2 weak-cut hierarchy (halves then pairs).
		return topology.Caterpillar([]float64{8, 3, 0.5, 3, 8}, 8)
	case spec == "mesh":
		return graphTopoOpts(opts)(topology.Mesh(4, 4, 2))
	case spec == "ring-of-racks":
		return graphTopoOpts(opts)(topology.RingOfRacks(4, 2, 3, 8))
	case spec == "clos":
		return graphTopoOpts(opts)(topology.Clos(2, 3, 2, 4, 10))
	case spec == "fanout":
		// Seeded so the overlay — and everything downstream of it — is
		// reproducible run to run.
		return graphTopoOpts(opts)(topology.RandomizedFanout(rand.New(rand.NewSource(42)), 12, 2, 0.5, 4))
	default:
		return nil, fmt.Errorf("unknown topology %q", spec)
	}
}

// graphTopoOpts curries the FromGraph options so generator calls can pass
// their (graph, error) pair straight through: the returned func compresses
// a generated general network to its cut tree, propagating whichever step
// failed.
func graphTopoOpts(opts []topology.FromGraphOption) func(*topology.Graph, error) (*topology.Tree, error) {
	return func(g *topology.Graph, err error) (*topology.Tree, error) {
		if err != nil {
			return nil, err
		}
		return topology.FromGraph(g, opts...)
	}
}

// PlaceFunc splits keys over p nodes.
type PlaceFunc func(rng *rand.Rand, keys []uint64, p int) (dataset.Placement, error)

// ErrUnknownPlacement is wrapped by Placer for a name it does not know; the
// commands exit 2 on it, as on any other bad flag value.
var ErrUnknownPlacement = errors.New("unknown placement")

// Placer resolves a placement name: uniform, zipf, oneheavy, single.
func Placer(name string, seed int64) (PlaceFunc, error) {
	switch name {
	case "uniform":
		return func(rng *rand.Rand, k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitUniform(k, p)
		}, nil
	case "zipf":
		return func(rng *rand.Rand, k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitZipf(rand.New(rand.NewSource(seed)), k, p, 1.2)
		}, nil
	case "oneheavy":
		return func(rng *rand.Rand, k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitOneHeavy(k, p, 0, 0.8)
		}, nil
	case "single":
		return func(rng *rand.Rand, k []uint64, p int) (dataset.Placement, error) {
			return dataset.SplitSingle(k, p, 0)
		}, nil
	}
	return nil, fmt.Errorf("%w %q (want uniform, zipf, oneheavy, single)", ErrUnknownPlacement, name)
}

// Loads builds the N_v vector for any number of placements.
func Loads(t *topology.Tree, parts ...dataset.Placement) topology.Loads {
	l := make(topology.Loads, t.NumNodes())
	for i, v := range t.ComputeNodes() {
		for _, p := range parts {
			l[v] += int64(len(p[i]))
		}
	}
	return l
}

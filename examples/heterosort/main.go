// Heterogeneous sort: a central datacenter plus remote branch sites need a
// globally sorted view of telemetry records (e.g. a time-ordered index).
//
// The central rack has a fat uplink and already holds 90% of the data; the
// branch rack sits behind a 16× slower uplink. Classic TeraSort assigns
// every node an equal share of the key space, which drags nearly half the
// dataset through the slow uplink. Cluster.Sort prices weighted TeraSort
// (wTS), which sizes each node's range by the data it already holds, against
// a one-round gather at the node where it costs least, and runs the
// cheaper: either way the slow uplink carries only the stragglers, and here
// the gather, which sends them once, is the cheaper of the two.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"topompc"
)

func main() {
	// Central rack: 4 nodes, 16× uplink. Branch rack: 4 nodes, 1× uplink.
	cluster, err := topompc.TwoTierCluster([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("central + branch sites:")
	fmt.Println(cluster)

	rng := rand.New(rand.NewSource(3))
	p := cluster.NumNodes()

	// 100k telemetry timestamps: 90% produced centrally, 10% at branches.
	n := 100_000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	weights := make([]float64, p)
	for i := 0; i < 4; i++ {
		weights[i] = 0.90 / 4
	}
	for i := 4; i < 8; i++ {
		weights[i] = 0.10 / 4
	}
	frags := splitWeighted(keys, weights)

	aware, err := cluster.Sort(frags, 11)
	if err != nil {
		log.Fatal(err)
	}
	oblivious, err := cluster.SortBaseline(frags, 11)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-24s rounds %d   cost %10.1f   LB %10.1f   ratio %5.2f\n",
		"planned sort ("+aware.Strategy+")", aware.Cost.Rounds, aware.Cost.Cost, aware.Cost.LowerBound, aware.Cost.Ratio())
	fmt.Printf("%-24s rounds %d   cost %10.1f   LB %10.1f   ratio %5.2f\n",
		"classic TeraSort", oblivious.Cost.Rounds, oblivious.Cost.Cost, oblivious.Cost.LowerBound, oblivious.Cost.Ratio())
	fmt.Printf("\ndistribution-awareness wins by %.1fx on the slow uplink\n",
		oblivious.Cost.Cost/aware.Cost.Cost)

	fmt.Println("\nfinal fragment sizes (central nodes first):")
	fmt.Printf("  planned:  %v\n", fragSizes(aware))
	fmt.Printf("  TeraSort: %v\n", fragSizes(oblivious))
}

func splitWeighted(keys []uint64, weights []float64) [][]uint64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	out := make([][]uint64, len(weights))
	off := 0
	for i, w := range weights {
		n := int(float64(len(keys)) * w / total)
		if i == len(weights)-1 {
			n = len(keys) - off
		}
		out[i] = keys[off : off+n]
		off += n
	}
	return out
}

func fragSizes(res *topompc.SortResult) []int {
	sizes := make([]int, 0, len(res.NodeOrder))
	for _, i := range res.NodeOrder {
		sizes = append(sizes, len(res.PerNode[i]))
	}
	return sizes
}

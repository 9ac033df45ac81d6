// Analytics pipeline: the extension tasks composed end to end.
//
// A two-rack cluster holds an orders table (fact, concentrated in the fast
// rack) and a customers table (dimension, scattered). The pipeline joins
// orders to customers on customer id, then aggregates revenue per region —
// the "ensembles of tasks in more complex queries" direction from the
// paper's conclusion, built from the library's join and aggregation
// extensions.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"topompc"
)

func main() {
	cluster, err := topompc.TwoTierCluster([]int{4, 4}, []float64{16, 1}, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("warehouse cluster:")
	fmt.Println(cluster)

	rng := rand.New(rand.NewSource(9))
	p := cluster.NumNodes()
	const customers = 300
	const regions = 8

	// customers(custID -> region): dimension, scattered everywhere.
	regionOf := make([]uint64, customers)
	cust := make([][]topompc.Row, p)
	for id := 0; id < customers; id++ {
		regionOf[id] = uint64(rng.Intn(regions))
		n := rng.Intn(p)
		cust[n] = append(cust[n], topompc.Row{Key: uint64(id), Payload: regionOf[id]})
	}

	// orders(custID -> amount): fact, concentrated in the fast rack.
	orders := make([][]topompc.Row, p)
	for i := 0; i < 8000; i++ {
		n := rng.Intn(4) // fast rack
		orders[n] = append(orders[n], topompc.Row{
			Key:     uint64(rng.Intn(customers)),
			Payload: uint64(1 + rng.Intn(500)), // order amount
		})
	}

	// Step 1: join orders with customers on custID.
	join, err := cluster.Join(cust, orders, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("join: %d (order, customer) matches   cost %.1f   rounds %d   plan %s\n",
		join.Pairs, join.Cost.Cost, join.Cost.Rounds, join.Strategy)

	joinBase, _ := cluster.JoinBaseline(cust, orders, 42)
	fmt.Printf("      oblivious plan would cost %.1f (%.1fx more)\n\n",
		joinBase.Cost.Cost, joinBase.Cost.Cost/join.Cost.Cost)

	// Step 2: aggregate revenue per region. (The joined pairs stay
	// distributed; here we feed the logically equivalent (region, amount)
	// stream back through the aggregation primitive.)
	revenue := make([][]topompc.GroupValue, p)
	for n := range orders {
		for _, o := range orders[n] {
			revenue[n] = append(revenue[n], topompc.GroupValue{
				Group: regionOf[o.Key],
				Value: int64(o.Payload),
			})
		}
	}
	agg, err := cluster.Aggregate(revenue, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregate: revenue for %d regions   cost %.1f   LB %.1f   ratio %.2f\n",
		len(agg.Totals), agg.Cost.Cost, agg.Cost.LowerBound, agg.Cost.Ratio())
	for region := 0; region < regions; region++ {
		fmt.Printf("  region %d: %d\n", region, agg.Totals[uint64(region)])
	}
}

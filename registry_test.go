package topompc

import (
	"math/rand"
	"strings"
	"testing"

	"topompc/internal/dataset"
)

func testCluster(t *testing.T) *Cluster {
	c, err := TwoTierCluster([]int{3, 3}, []float64{4, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testInput(t *testing.T, c *Cluster, spec Task, n int) TaskInput {
	rng := rand.New(rand.NewSource(5))
	p := c.NumNodes()
	in := TaskInput{Seed: 42}
	var err error
	switch spec.Kind {
	case TaskPair:
		r, s := n/4, n/2
		if spec.WantsEqualPair {
			r, s = n/4, n/4
		}
		var rk, sk []uint64
		rk, sk, err = dataset.SetPair(rng, r, s, r/8)
		if err != nil {
			t.Fatal(err)
		}
		if in.R, err = dataset.SplitUniform(rk, p); err != nil {
			t.Fatal(err)
		}
		if in.S, err = dataset.SplitUniform(sk, p); err != nil {
			t.Fatal(err)
		}
	case TaskSingle:
		keys := dataset.Distinct(rng, n)
		if spec.WantsDuplicates {
			pool := dataset.Distinct(rng, n/8)
			for i := range keys {
				keys[i] = pool[rng.Intn(len(pool))]
			}
		}
		if in.Data, err = dataset.SplitUniform(keys, p); err != nil {
			t.Fatal(err)
		}
	case TaskGraph:
		verts := max(4, n/3)
		pairs := float64(verts) * float64(verts-1) / 2
		edges, err := dataset.GNP(rng, verts, min(1, float64(n)/pairs))
		if err != nil {
			t.Fatal(err)
		}
		if in.Data, err = dataset.SplitUniform(edges, p); err != nil {
			t.Fatal(err)
		}
	case TaskMulti:
		k := spec.NumRelations
		if k == 0 {
			k = 3
		}
		m := n / k
		dom := 24
		if !spec.Cyclic {
			dom = max(2, m/4)
		}
		in.Rels = make([][][]uint64, k)
		for j := range in.Rels {
			keys := make([]uint64, m)
			for i := range keys {
				b := uint64(rng.Intn(dom))
				if !spec.Cyclic {
					b = rng.Uint64() & 0xffffffff
				}
				keys[i] = EncodeTuple2(Tuple2{A: uint64(rng.Intn(dom)), B: b})
			}
			if in.Rels[j], err = dataset.SplitUniform(keys, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return in
}

// TestRegistryRunsEveryTask executes each registered task end to end; the
// tasks verify their own outputs against reference computations.
func TestRegistryRunsEveryTask(t *testing.T) {
	c := testCluster(t)
	tasks := Tasks()
	if len(tasks) < 9 {
		t.Fatalf("registry has %d tasks, want at least 9", len(tasks))
	}
	for _, spec := range tasks {
		t.Run(spec.Name, func(t *testing.T) {
			res, err := c.RunTask(spec.Name, testInput(t, c, spec, 2000))
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary == "" {
				t.Fatal("empty summary")
			}
			if res.Report == nil {
				t.Fatal("missing report")
			}
			if res.Cost.Cost < 0 {
				t.Fatalf("negative cost %v", res.Cost.Cost)
			}
		})
	}
}

// TestTaskTableSortedAndPaired pins the two structural facts readers of the
// table rely on: names are unique and ascending (LookupTask binary-searches
// them), and every Baseline names a row of the same Kind that is itself a
// baseline, i.e. has none.
func TestTaskTableSortedAndPaired(t *testing.T) {
	for i, row := range tasks {
		if i > 0 && tasks[i-1].Name >= row.Name {
			t.Errorf("row %d: %q does not sort after %q", i, row.Name, tasks[i-1].Name)
		}
		if got, ok := LookupTask(row.Name); !ok || got.Name != row.Name {
			t.Errorf("LookupTask(%q) = %q, %v", row.Name, got.Name, ok)
		}
		if row.Description == "" || row.Run == nil {
			t.Errorf("%s: missing description or Run", row.Name)
		}
		if row.Baseline == "" {
			continue
		}
		base, ok := LookupTask(row.Baseline)
		switch {
		case !ok:
			t.Errorf("%s: baseline %q is not in the table", row.Name, row.Baseline)
		case base.Kind != row.Kind:
			t.Errorf("%s: baseline %s has kind %v, want %v", row.Name, base.Name, base.Kind, row.Kind)
		case base.Baseline != "":
			t.Errorf("%s: baseline %s has a baseline of its own (%s)", row.Name, base.Name, base.Baseline)
		}
	}
	if _, ok := LookupTask(""); ok {
		t.Error("LookupTask found the empty name")
	}
	// Tasks hands out a copy: a caller reordering it must not break lookups.
	Tasks()[0].Name = "zzz"
	if tasks[0].Name == "zzz" {
		t.Error("Tasks returned the table itself, not a copy")
	}
}

// TestRegistryUnknownTask reports the available names.
func TestRegistryUnknownTask(t *testing.T) {
	c := testCluster(t)
	_, err := c.RunTask("no-such-task", TaskInput{})
	if err == nil || !strings.Contains(err.Error(), "intersect") {
		t.Fatalf("want error listing tasks, got %v", err)
	}
}

// TestExecOptionsDeterminism: the worker budget must not change any
// result or cost.
func TestExecOptionsDeterminism(t *testing.T) {
	for _, spec := range Tasks() {
		base := testCluster(t)
		in := testInput(t, base, spec, 3000)
		ref, err := base.RunTask(spec.Name, in)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, workers := range []int{1, 2, 7} {
			c := testCluster(t)
			c.SetExecOptions(ExecOptions{Workers: workers})
			res, err := c.RunTask(spec.Name, in)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec.Name, workers, err)
			}
			if res.Cost.Cost != ref.Cost.Cost || res.Cost.Elements != ref.Cost.Elements ||
				res.Cost.Rounds != ref.Cost.Rounds || res.Summary != ref.Summary {
				t.Fatalf("%s workers=%d: result diverged: %+v vs %+v",
					spec.Name, workers, res, ref)
			}
		}
	}
}

package cliutil

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topompc/internal/dataset"
)

func TestParseTopoBuiltins(t *testing.T) {
	cases := map[string]int{ // spec -> expected compute nodes
		"star:5x2":    5,
		"twotier":     12,
		"fattree":     9,
		"caterpillar": 6,
	}
	for spec, want := range cases {
		tr, err := ParseTopo(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if tr.NumCompute() != want {
			t.Errorf("%s: %d compute nodes, want %d", spec, tr.NumCompute(), want)
		}
	}
}

func TestParseTopoErrors(t *testing.T) {
	for _, spec := range []string{"nope", "star:5", "star:axb", "star:3xq", "star:0x1", "star:-3x1", "@/does/not/exist.json"} {
		if _, err := ParseTopo(spec); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
}

func TestParseTopoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
	spec := `{"nodes":[{"name":"w","compute":false},{"name":"a","compute":true},{"name":"b","compute":true}],
		"edges":[{"a":1,"b":0,"bw":2},{"a":2,"b":0,"bw":3}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseTopo("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCompute() != 2 {
		t.Errorf("parsed %d compute nodes, want 2", tr.NumCompute())
	}
}

func TestPlacers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := dataset.Sequential(1000)
	for _, name := range []string{"uniform", "zipf", "oneheavy", "single", "unknown"} {
		place, err := Placer(name, 7)
		if name == "unknown" {
			// A mistyped name is an error naming the choices, not uniform.
			if !errors.Is(err, ErrUnknownPlacement) || !strings.Contains(err.Error(), "uniform, zipf, oneheavy, single") {
				t.Errorf("unknown: err = %v, want ErrUnknownPlacement listing the placements", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := place(rng, keys, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Total() != 1000 {
			t.Errorf("%s: total %d, want 1000", name, p.Total())
		}
		// single puts everything on node 0.
		if name == "single" && len(p[0]) != 1000 {
			t.Error("single placement did not concentrate")
		}
	}
}

func TestLoads(t *testing.T) {
	tr, err := ParseTopo("star:3x1")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dataset.SplitCounts(dataset.Sequential(6), []int{1, 2, 3})
	b, _ := dataset.SplitCounts(dataset.Sequential(3), []int{3, 0, 0})
	l := Loads(tr, a, b)
	vs := tr.ComputeNodes()
	if l[vs[0]] != 4 || l[vs[1]] != 2 || l[vs[2]] != 3 {
		t.Errorf("loads = %v", l)
	}
}

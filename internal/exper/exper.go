// Package exper regenerates every table and figure of the paper, plus the
// ablations and extensions built on them: 23 experiments, listed in display
// order in this file. An experiment is a handful of table specs and the cells
// that fill them; the driver (driver.go) executes a cell — through the root
// package's verified pipelines wherever the protocol is a row of the task
// table — and checks it against what its table claims. cmd/topobench renders
// the tables, and EXPERIMENTS.md at the repository root records them at seed
// 42.
package exper

import (
	"fmt"
	"slices"
	"strings"
)

// Config controls experiment scale.
type Config struct {
	// Seed drives all randomness; the same seed reproduces every number.
	Seed uint64
	// Quick shrinks sweeps for use in unit tests and -short mode.
	Quick bool
}

// pick chooses between the full-size and the quick value of a parameter.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
	// Ceiling is what the table claims of every cell run into it; the driver
	// fails a cell above it.
	Ceiling Ceiling
	// err is the first failure of a cell or a claim of this table.
	err error
}

// newTable starts a table: its title, the note under it ("" for none) and its
// column headers.
func newTable(title, note string, headers ...string) Table {
	return Table{Title: title, Note: note, Headers: headers}
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmtFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s\n\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "%s\n\n", t.Note)
	}
	sb.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "%s\n", t.Note)
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	for i, h := range t.Headers {
		sb.WriteString(pad(h, widths[i]) + "  ")
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				sb.WriteString(pad(c, widths[i]) + "  ")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Experiment is one reproducible unit: a paper table/figure or an ablation.
type Experiment struct {
	ID    string
	Title string
	Paper string // the artifact it regenerates
	Run   func(cfg Config) ([]Table, error)
}

// experiments lists every experiment in display order: the paper's tables
// and figures (E), the design ablations (A), then the extensions beyond the
// paper (X), which make no claims on its behalf.
var experiments = []Experiment{
	{"E1", "Set intersection: rounds and cost vs Theorem 1 lower bound", "Table 1, row 1 (1 round, O(log|V|·logN) w.h.p.)", runE1},
	{"E2", "Cartesian product: rounds and cost vs Theorems 3+4 lower bound", "Table 1, row 2 (1 round, O(1) deterministic)", runE2},
	{"E3", "Sorting: rounds and cost vs Theorem 6 lower bound", "Table 1, row 3 (O(1) rounds, O(1) w.h.p.)", runE3},
	{"E4", "All three tasks on the Figure 1 topologies", "Figure 1 (star and tree topologies)", runE4},
	{"E5", "Balanced partition structure", "Figure 2 / Definition 1 / Algorithm 3", runE5},
	{"E6", "G† orientation: compute-node root vs router root", "Figure 3 / Lemma 4", runE6},
	{"E7", "Power-of-two square packing coverage", "Figure 4 / Lemma 5", runE7},
	{"E8", "Sorting under the adversarial rank-interleaved distribution", "Figure 5 / Theorem 6", runE8},
	{"E9", "Unequal cartesian product on a heterogeneous star", "§4.5 + Appendix A.1 (Algorithms 7-8)", runE9},
	{"E10", "Topology-aware protocols vs topology-oblivious baselines", "§1 motivation (implicit comparison)", runE10},
	{"A1", "Ablation: weighted vs uniform hashing in TreeIntersect", "design choice of Algorithms 1-2", runA1},
	{"A2", "Ablation: balanced partition on vs off", "Algorithm 3 / Definition 1", runA2},
	{"A3", "Ablation: proportional vs uniform light-to-heavy routing in wTS", "third wTS generalization (§5.2)", runA3},
	{"A4", "Ablation: power-of-two rounding waste in wHC", "equation (1) / Lemma 5", runA4},
	{"X1", "Extension: topology-aware group-by aggregation", "beyond the paper (conclusion / related work [37])", runX1},
	{"X2", "Extension: binary equi-join with multiplicities", "beyond the paper (conclusion: 'a simple join between two relations')", runX2},
	{"X3", "Extension: triangle join, HyperCube-on-a-tree vs flat HyperCube", "beyond the paper (HyperCube shares; Afrati–Ullman, Beame–Koutris–Suciu)", runX3},
	{"X4", "Extension: k-way star join, capacity-weighted vs uniform hashing", "beyond the paper (weighted-MPC line, Ma & Li 2023)", runX4},
	{"X5", "Extension: connected components, aware vs flat label contraction", "beyond the paper (MPC connectivity: Andoni et al. 2018, Behnezhad et al. 2019)", runX5},
	{"X6", "Extension: capacity splitters and combiner-tree aggregation, aware vs flat", "beyond the paper (place engine; cf. distribution-aware aggregation, Liu et al. VLDB 2018)", runX6},
	{"X7", "Extension: recursive weak-cut hierarchy depth vs combining cost", "beyond the paper (place hierarchy; cf. in-network aggregation trees, Camdoop/CamCube)", runX7},
	{"X8", "Extension: Gomory–Hu cut-tree front-end for general networks", "beyond the paper (Gomory–Hu 1961; Gusfield 1990 simplification)", runX8},
	{"X9", "Extension: cc-fast graph exponentiation vs Borůvka rounds", "beyond the paper (truncated neighborhood exponentiation: Andoni et al. 2018, Behnezhad et al. 2019)", runX9},
}

// All returns every experiment in display order.
func All() []Experiment { return slices.Clone(experiments) }

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

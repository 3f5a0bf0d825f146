package experiments

import (
	"fmt"

	"github.com/nrp-embed/nrp/internal/graph"
)

// Dataset describes a synthetic stand-in for one of the paper's graphs
// (Table 3 / Table 4). Quick sizes keep the whole suite runnable on a
// single core; Scale (cmd/nrpexp -scale) multiplies nodes and edges.
type Dataset struct {
	Name      string // our name, e.g. "wiki-sim"
	PaperName string // the dataset it stands in for
	Directed  bool
	N, M      int // quick-profile size
	PaperN    string
	PaperM    string
	Labels    int
	Seed      int64
	// Heavy marks graphs that only the scalable methods run on (the
	// paper's 7-day-timeout policy, scaled to this harness).
	Heavy bool
}

// Gen generates the dataset at the given scale multiplier.
func (d Dataset) Gen(scale float64) (*graph.Graph, error) {
	if scale <= 0 {
		scale = 1
	}
	n := int(float64(d.N) * scale)
	m := int(float64(d.M) * scale)
	labels := d.Labels
	if labels == 0 {
		labels = 20 // unlabeled in the paper; synthetic communities still shape the topology
	}
	g, err := graph.GenSBM(graph.SBMConfig{
		N:           n,
		M:           m,
		Communities: labels,
		Directed:    d.Directed,
		Seed:        d.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", d.Name, err)
	}
	if d.Labels == 0 {
		g.Labels = nil
		g.NumLabels = 0
	}
	return g, nil
}

// Datasets mirrors the paper's Table 3. The two small graphs match the
// paper's n and m exactly; larger ones are scaled down (PaperN and PaperM
// beside N and M give the factor) so the full suite runs on one core.
var Datasets = []Dataset{
	{Name: "wiki-sim", PaperName: "Wiki", Directed: true, N: 4780, M: 184810, PaperN: "4.78K", PaperM: "184.81K", Labels: 40, Seed: 101},
	{Name: "blogcatalog-sim", PaperName: "BlogCatalog", Directed: false, N: 10310, M: 333980, PaperN: "10.31K", PaperM: "333.98K", Labels: 39, Seed: 102},
	{Name: "youtube-sim", PaperName: "Youtube", Directed: false, N: 56500, M: 149500, PaperN: "1.13M", PaperM: "2.99M", Labels: 47, Seed: 103, Heavy: true},
	{Name: "tweibo-sim", PaperName: "TWeibo", Directed: true, N: 46400, M: 1013000, PaperN: "2.32M", PaperM: "50.65M", Labels: 100, Seed: 104, Heavy: true},
	{Name: "orkut-sim", PaperName: "Orkut", Directed: false, N: 62000, M: 4680000, PaperN: "3.1M", PaperM: "234M", Labels: 100, Seed: 105, Heavy: true},
	{Name: "twitter-sim", PaperName: "Twitter", Directed: true, N: 83200, M: 2400000, PaperN: "41.6M", PaperM: "1.2B", Labels: 0, Seed: 106, Heavy: true},
	{Name: "friendster-sim", PaperName: "Friendster", Directed: false, N: 131200, M: 3600000, PaperN: "65.6M", PaperM: "1.8B", Labels: 0, Seed: 107, Heavy: true},
}

// EvolvingDataset mirrors Table 4: a snapshot plus future edges.
type EvolvingDataset struct {
	Name       string
	PaperName  string
	Directed   bool
	N          int
	MOld, MNew int
	PaperN     string
	PaperMOld  string
	PaperMNew  string
	Seed       int64
}

// Gen generates the snapshot and new-edge set at the given scale.
func (d EvolvingDataset) Gen(scale float64) (*graph.Graph, []graph.Edge, error) {
	if scale <= 0 {
		scale = 1
	}
	return graph.GenEvolving(graph.EvolvingConfig{
		Base: graph.SBMConfig{
			N:           int(float64(d.N) * scale),
			M:           int(float64(d.MOld) * scale),
			Communities: 20,
			Directed:    d.Directed,
			Seed:        d.Seed,
		},
		MNew: int(float64(d.MNew) * scale),
		Seed: d.Seed + 1,
	})
}

// EvolvingDatasets mirrors Table 4 (VK, Digg), scaled down.
var EvolvingDatasets = []EvolvingDataset{
	{Name: "vk-sim", PaperName: "VK", Directed: false, N: 7860, MOld: 268000, MNew: 267000, PaperN: "78.59K", PaperMOld: "2.68M", PaperMNew: "2.67M", Seed: 201},
	{Name: "digg-sim", PaperName: "Digg", Directed: true, N: 27960, MOld: 103000, MNew: 70160, PaperN: "279.63K", PaperMOld: "1.03M", PaperMNew: "701.59K", Seed: 202},
}

// FindDataset returns the registered dataset with the given name.
func FindDataset(name string) (Dataset, error) {
	for _, d := range Datasets {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("experiments: unknown dataset %q", name)
}

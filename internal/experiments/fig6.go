package experiments

import (
	"strings"

	"bass/internal/dag"
	"bass/internal/scheduler"
)

// fig6Result reports the component orderings of the paper's worked example.
type fig6Result struct {
	BFSOrder         []string
	LongestPathOrder []string
	Chains           [][]string
}

// fig6Graph reconstructs the seven-component application DAG of Fig 6.
func fig6Graph() *dag.Graph {
	g := dag.NewGraph("fig6")
	for _, name := range []string{"1", "2", "3", "4", "5", "6", "7"} {
		g.MustAddComponent(dag.Component{Name: name, CPU: 1})
	}
	g.MustAddEdge("1", "2", 10)
	g.MustAddEdge("1", "3", 12)
	g.MustAddEdge("3", "6", 2)
	g.MustAddEdge("2", "4", 10)
	g.MustAddEdge("4", "5", 10)
	g.MustAddEdge("5", "7", 9)
	return g
}

// runFig6 computes both heuristic orderings on the Fig 6 DAG. The paper's
// published answers are BFS → 1,3,2,4,5,7,6 and longest-path → 1,2,4,5,7,3,6.
func runFig6() (fig6Result, error) {
	g := fig6Graph()
	bfs, err := scheduler.BFSOrder(g)
	if err != nil {
		return fig6Result{}, err
	}
	chains, err := scheduler.LongestPathChains(g)
	if err != nil {
		return fig6Result{}, err
	}
	var lp []string
	for _, c := range chains {
		lp = append(lp, c...)
	}
	return fig6Result{BFSOrder: bfs, LongestPathOrder: lp, Chains: chains}, nil
}

// Table renders the orderings next to the paper's published ones.
func (r fig6Result) Table() Table {
	chainStrs := make([]string, len(r.Chains))
	for i, c := range r.Chains {
		chainStrs[i] = strings.Join(c, "-")
	}
	return Table{
		Title:  "Fig 6: component ordering example",
		Header: []string{"heuristic", "ordering", "paper"},
		Rows: [][]string{
			{"bfs", strings.Join(r.BFSOrder, ","), "1,3,2,4,5,7,6"},
			{"longest-path", strings.Join(r.LongestPathOrder, ","), "1,2,4,5,7,3,6"},
			{"lp-chains", strings.Join(chainStrs, " | "), "1-2-4-5-7 | 3-6"},
		},
	}
}

package core

import (
	"fmt"
	"sort"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// Algorithm is an APSP approximation algorithm runnable on a clique, the
// shape accepted by the Theorem 2.1 wrapper.
type Algorithm func(clq *cc.Clique, g *graph.Graph, cfg Config) (Estimate, error)

// nowickiMSTRounds is the round charge for revealing the zero-weight
// components, per the O(1)-round deterministic MST algorithm of [Now21]
// invoked as a black box by Theorem 2.1 (the components are computed by
// union-find, which stands in for that black box). The live-engine label
// propagation protocol cross-checks the component structure in tests.
const nowickiMSTRounds = 5

// WithZeroWeights implements Theorem 2.1: it extends an algorithm for
// positive integer weights to nonnegative integer weights at +O(1) rounds.
// Zero-weight components are contracted to leader nodes, the compressed
// graph (minimum inter-component edge weights) is solved by the inner
// algorithm on a subclique of the leaders, and the estimates are expanded
// back through the component map.
func WithZeroWeights(clq *cc.Clique, g *graph.Graph, cfg Config, inner Algorithm) (Estimate, error) {
	if g.Directed() {
		return Estimate{}, fmt.Errorf("core: input graph must be undirected")
	}
	cfg = cfg.withDefaults()
	if !g.HasZeroWeights() {
		return inner(clq, g, cfg)
	}
	n := g.N()
	clq.Phase("zeroweights")
	if err := cfg.Checkpoint("zeroweights"); err != nil {
		return Estimate{}, err
	}

	// Step 1–2: components of the zero-weight subgraph and their leaders
	// (minimum-ID representative), charged per the [Now21] black box.
	comp := zeroComponents(g)
	clq.ChargeRounds(nowickiMSTRounds)

	leaders := make([]int, 0)
	seen := make(map[int]bool)
	for _, c := range comp {
		if !seen[c] {
			seen[c] = true
			leaders = append(leaders, c)
		}
	}
	sort.Ints(leaders)
	leaderIdx := make(map[int]int, len(leaders))
	for i, l := range leaders {
		leaderIdx[l] = i
	}
	m := len(leaders)

	if m == 1 {
		// Everything is at distance zero.
		d := minplus.NewDense(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				d.Set(u, v, 0)
			}
		}
		return Estimate{D: d, Factor: 1}, nil
	}

	// Step 3: every node reports, per foreign component, its lightest edge
	// into that component to the component's leader (one message per
	// (node, leader) pair, as in Appendix A).
	var msgs []cc.Message
	for v := 0; v < n; v++ {
		best := make(map[int]int64) // foreign leader → min weight
		for _, a := range g.Out(v) {
			cv, cu := comp[v], comp[a.To]
			if cv == cu {
				continue
			}
			if old, ok := best[cu]; !ok || a.W < old {
				best[cu] = a.W
			}
		}
		for leader, w := range best {
			msgs = append(msgs, cc.Message{
				From:    v,
				To:      leader,
				Payload: []cc.Word{int64(comp[v]), w},
			})
		}
	}
	inbox := clq.Route(msgs, cc.RouteOpts{
		SendBudget: int64(2 * n),
		RecvBudget: int64(2 * n),
		Note:       "zero-weight compressed edges",
	})

	// Compressed graph on the leaders.
	cg := graph.New(m)
	type pair struct{ a, b int }
	bestEdge := make(map[pair]int64)
	for _, leader := range leaders {
		li := leaderIdx[leader]
		for _, msg := range inbox[leader] {
			fromComp := leaderIdx[int(msg.Payload[0])]
			w := msg.Payload[1]
			a, b := li, fromComp
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			k := pair{a, b}
			if old, ok := bestEdge[k]; !ok || w < old {
				bestEdge[k] = w
			}
		}
	}
	for k, w := range bestEdge {
		cg.AddEdge(k.a, k.b, w)
	}
	if err := cg.RequirePositiveWeights(); err != nil {
		return Estimate{}, fmt.Errorf("core: compressed graph: %w", err)
	}

	// Run the inner algorithm among the leaders; its lifted cost is
	// accounted under its own phase so the reduction's O(1) overhead stays
	// visible.
	child, finish := clq.Subclique(m, clq.Bandwidth())
	compressed, err := inner(child, cg, cfg)
	clq.Phase("zeroweights-inner")
	finish()
	clq.Phase("zeroweights")
	if err != nil {
		return Estimate{}, err
	}

	// Expand: each leader sends δ(s,·) rows to its members (Appendix A's
	// final step; every node receives ≤ m ≤ n words).
	var expand []cc.Message
	for v := 0; v < n; v++ {
		if comp[v] == v {
			continue
		}
		expand = append(expand, cc.Message{
			From:    comp[v],
			To:      v,
			Payload: make([]cc.Word, m),
		})
	}
	clq.Route(expand, cc.RouteOpts{
		Duplicable: true,
		RecvBudget: int64(n),
		Note:       "zero-weight row expansion",
	})

	d := minplus.NewDense(n)
	for u := 0; u < n; u++ {
		cu := leaderIdx[comp[u]]
		row := d.Row(u)
		for v := 0; v < n; v++ {
			if comp[u] == comp[v] {
				row[v] = 0
				continue
			}
			row[v] = compressed.D.At(cu, leaderIdx[comp[v]])
		}
	}
	return Estimate{D: d, Factor: compressed.Factor}, nil
}

// zeroComponents returns, for every node, the minimum node ID of its
// zero-weight component (union-find over zero-weight edges).
func zeroComponents(g *graph.Graph) []int {
	n := g.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		for _, a := range g.Out(u) {
			if a.W == 0 {
				ru, rv := find(u), find(a.To)
				if ru != rv {
					parent[ru] = rv
				}
			}
		}
	}
	// Normalize to minimum-ID representatives.
	minID := make(map[int]int)
	for v := 0; v < n; v++ {
		r := find(v)
		if old, ok := minID[r]; !ok || v < old {
			minID[r] = v
		}
	}
	comp := make([]int, n)
	for v := 0; v < n; v++ {
		comp[v] = minID[find(v)]
	}
	return comp
}

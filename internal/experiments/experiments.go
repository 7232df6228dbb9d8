// Package experiments regenerates every experiment table and figure: one
// experiment per theorem/lemma guarantee of the paper (`ccbench -list`
// prints the index). The same experiment functions back cmd/ccbench and
// the top-level testing.B benchmarks.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/core"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/hopset"
	"github.com/congestedclique/cliqueapsp/internal/knearest"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
	"github.com/congestedclique/cliqueapsp/internal/registry"
	"github.com/congestedclique/cliqueapsp/internal/scaling"
	"github.com/congestedclique/cliqueapsp/internal/skeleton"
	"github.com/congestedclique/cliqueapsp/internal/spanner"
)

// comparisonSpecs returns the registry specs the comparison experiments
// sweep: the paper's headline result plus every registered baseline, in
// registration order. Registering a new baseline adds it to T1 and F1
// without touching this package.
func comparisonSpecs() []registry.Spec {
	var out []registry.Spec
	for _, spec := range registry.All() {
		if spec.Name == registry.Constant || spec.Baseline {
			out = append(out, spec)
		}
	}
	return out
}

// Table is one rendered experiment.
type Table struct {
	ID         string
	Title      string
	Reproduces string
	Header     []string
	Rows       [][]string
	Notes      []string
}

// Suite configures a run of the experiment harness.
type Suite struct {
	// Sizes are the graph sizes swept by the size-dependent experiments.
	Sizes []int
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks the sweeps for use in unit tests and smoke runs.
	Quick bool
}

func (s Suite) withDefaults() Suite {
	if len(s.Sizes) == 0 {
		if s.Quick {
			s.Sizes = []int{48, 64}
		} else {
			s.Sizes = []int{64, 128, 256}
		}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

func (s Suite) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(s.Seed + offset))
}

func (s Suite) config(offset int64) core.Config {
	return core.Config{Eps: 0.1, Rng: s.rng(offset)}
}

// IDs lists the experiment identifiers in presentation order: t1..t9 for
// the theorem/lemma tables, f1/f2 for the figures, a1..a5 for ablations of
// design choices, p1 for the phase profile.
func IDs() []string {
	return []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9",
		"f1", "f2", "a1", "a2", "a3", "a4", "a5", "p1"}
}

// ByID runs a single experiment.
func ByID(id string, s Suite) (Table, error) {
	s = s.withDefaults()
	switch strings.ToLower(id) {
	case "t1":
		return T1AlgorithmComparison(s), nil
	case "t2":
		return T2Tradeoff(s), nil
	case "t3":
		return T3Hopsets(s), nil
	case "t4":
		return T4KNearest(s), nil
	case "t5":
		return T5Skeleton(s), nil
	case "t6":
		return T6Scaling(s), nil
	case "t7":
		return T7Spanners(s), nil
	case "t8":
		return T8Reduction(s), nil
	case "t9":
		return T9ZeroWeights(s), nil
	case "f1":
		return F1RoundGrowth(s), nil
	case "f2":
		return F2Frontier(s), nil
	case "a1":
		return A1HopsetAblation(s), nil
	case "a2":
		return A2ScaleDedup(s), nil
	case "a3":
		return A3BandwidthRegime(s), nil
	case "a4":
		return A4Determinism(s), nil
	case "a5":
		return A5KNearestMethods(s), nil
	case "p1":
		return P1PhaseBreakdown(s), nil
	default:
		return Table{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

// All runs every experiment.
func All(s Suite) []Table {
	s = s.withDefaults()
	out := make([]Table, 0, len(IDs()))
	for _, id := range IDs() {
		t, err := ByID(id, s)
		if err != nil {
			panic(err) // unreachable: IDs() and ByID agree
		}
		out = append(out, t)
	}
	return out
}

func f2s(v float64) string { return fmt.Sprintf("%.2f", v) }
func i2s(v int64) string   { return fmt.Sprintf("%d", v) }
func quality(est *minplus.Dense, exact *minplus.Dense) (string, string, int) {
	maxR, meanR, under := core.MeasureQuality(est, exact)
	return f2s(maxR), f2s(meanR), under
}

// T1AlgorithmComparison reproduces the headline comparison implied by
// Theorem 1.1: the constant-approximation pipeline versus the CZ22
// O(log n)-approximation baseline and the exact algebraic baseline.
func T1AlgorithmComparison(s Suite) Table {
	t := Table{
		ID:         "t1",
		Title:      "Theorem 1.1 — constant-factor APSP vs baselines",
		Reproduces: "Theorem 1.1 (+(CZ22) Corollary 7.2, CKK+19 exact baseline)",
		Header: []string{"graph", "n", "algorithm", "rounds", "max ratio",
			"mean ratio", "proven bound"},
		Notes: []string{
			"Expected shape: Theorem 1.1 keeps a bounded ratio at roughly flat rounds;",
			"the spanner baseline is cheapest but its ratio bound grows with log n;",
			"the exact baseline's rounds grow polynomially (⌈n^{1/3}⌉ per product).",
		},
	}
	gens := []string{"random", "clustered", "grid"}
	if s.Quick {
		gens = gens[:1]
	}
	for _, gen := range gens {
		for _, n := range s.Sizes {
			g, err := graph.GeneratorByName(gen, n, graph.WeightRange{Min: 1, Max: 50}, s.rng(int64(n)))
			if err != nil {
				panic(err)
			}
			exact := g.ExactAPSP()
			for _, spec := range comparisonSpecs() {
				// The comparison is run in the standard model (bandwidth 1)
				// like the seed tables; specs with a larger natural model
				// keep their own default.
				clq := cc.New(g.N(), spec.BandwidthFor(g.N(), 0))
				est, err := spec.Run(clq, g, s.config(int64(n)), registry.Params{T: 1})
				if err != nil {
					panic(err)
				}
				maxR, meanR, _ := quality(est.D, exact)
				t.Rows = append(t.Rows, []string{
					gen, i2s(int64(g.N())), spec.Name, i2s(clq.Metrics().Rounds),
					maxR, meanR, f2s(est.Factor),
				})
			}
		}
	}
	return t
}

// T2Tradeoff reproduces Theorem 1.2: terminating earlier costs accuracy on a
// doubly-exponential schedule.
func T2Tradeoff(s Suite) Table {
	t := Table{
		ID:         "t2",
		Title:      "Theorem 1.2 — round/approximation tradeoff",
		Reproduces: "Theorem 1.2",
		Header: []string{"n", "t", "rounds", "max ratio", "proven bound",
			"paper shape O(log^{2^-t} n)"},
		Notes: []string{
			"Expected shape: each +1 in t squares-roots the approximation term",
			"while rounds grow only additively.",
		},
	}
	n := s.Sizes[len(s.Sizes)-1]
	ts := []int{1, 2, 3, 4}
	if s.Quick {
		ts = ts[:2]
	}
	g := graph.RandomConnected(n, 5, graph.WeightRange{Min: 1, Max: 50}, s.rng(2))
	exact := g.ExactAPSP()
	for _, tt := range ts {
		clq := cc.New(g.N(), 1)
		est, err := core.Tradeoff(clq, g, tt, s.config(20+int64(tt)))
		if err != nil {
			panic(err)
		}
		maxR, _, _ := quality(est.D, exact)
		t.Rows = append(t.Rows, []string{
			i2s(int64(g.N())), i2s(int64(tt)), i2s(clq.Metrics().Rounds),
			maxR, f2s(est.Factor), f2s(core.TradeoffPaperFactor(g.N(), tt, 0.1)),
		})
	}
	return t
}

// T3Hopsets reproduces Lemma 3.2: measured hop radii of √n-nearest hopsets
// stay under the proven β ∈ O(a·log d) for estimates of varying quality a.
func T3Hopsets(s Suite) Table {
	t := Table{
		ID:         "t3",
		Title:      "Lemma 3.2 — √n-nearest β-hopsets",
		Reproduces: "Lemma 3.2 (§4)",
		Header: []string{"n", "a (estimate factor)", "weighted diam", "β bound",
			"measured max hops", "pairs checked"},
		Notes: []string{
			"Measured hop radius: max hops needed in G∪H to realize the exact",
			"distance to every √n-nearest node. Must stay ≤ β; typically far below.",
		},
	}
	n := s.Sizes[0]
	g := graph.RandomConnected(n, 4, graph.WeightRange{Min: 1, Max: 40}, s.rng(3))
	exact := g.ExactAPSP()
	diam := g.WeightedDiameter()
	factors := []float64{1, 3, 9}
	if s.Quick {
		factors = factors[:2]
	}
	for _, a := range factors {
		delta := degradeEstimate(exact, a, s.rng(int64(a)))
		clq := cc.New(g.N(), 1)
		h, err := hopset.Build(clq, g.AsDirected(), delta, intSqrt(g.N()))
		if err != nil {
			panic(err)
		}
		gh := graph.UnionDirected(g.AsDirected(), h)
		beta := hopset.HopBound(a, diam)
		sources := sampleSources(g.N(), 12, s.rng(7))
		radius, pairs := hopset.MeasureHopRadius(g, gh, intSqrt(g.N()), sources, beta)
		t.Rows = append(t.Rows, []string{
			i2s(int64(g.N())), f2s(a), i2s(diam), i2s(int64(beta)),
			i2s(int64(radius)), i2s(int64(pairs)),
		})
	}
	return t
}

// T4KNearest reproduces Lemmas 5.1/5.2: exact k-nearest lists in O(i)
// rounds, checked against the unfiltered reference (which also validates
// Lemma 5.5 empirically).
func T4KNearest(s Suite) Table {
	t := Table{
		ID:         "t4",
		Title:      "Lemmas 5.1/5.2 — k-nearest nodes via h-combinations",
		Reproduces: "Lemmas 5.1, 5.2, 5.5 (§5)",
		Header: []string{"n", "k", "h", "iterations", "rounds", "lists correct",
			"max recv load (words)"},
		Notes: []string{
			"Rounds are flat in n and linear in iterations (Lemma 5.2's O(i));",
			"'lists correct' compares against per-source hop-limited Bellman–Ford.",
		},
	}
	for _, n := range s.Sizes {
		g := graph.RandomConnected(n, 4, graph.WeightRange{Min: 1, Max: 30}, s.rng(4)).AsDirected()
		k := intSqrt(n)
		for _, iters := range []int{1, 2, 3} {
			if s.Quick && iters == 3 {
				continue
			}
			clq := cc.New(n, 1)
			res, err := knearest.Compute(clq, g, k, 2, iters)
			if err != nil {
				panic(err)
			}
			hops := 1
			for j := 0; j < iters; j++ {
				hops *= 2
			}
			ok := listsEqual(res.Lists, knearest.Reference(g, k, hops))
			m := clq.Metrics()
			var maxRecv int64
			for _, p := range m.Phases {
				if p.MaxRecv > maxRecv {
					maxRecv = p.MaxRecv
				}
			}
			t.Rows = append(t.Rows, []string{
				i2s(int64(n)), i2s(int64(k)), "2", i2s(int64(iters)),
				i2s(m.Rounds), fmt.Sprintf("%v", ok), i2s(maxRecv),
			})
		}
	}
	return t
}

// T5Skeleton reproduces Lemma 3.4/6.1: skeleton sizes track n·log k/k and
// the translation loses at most the proven 7la² factor.
func T5Skeleton(s Suite) Table {
	t := Table{
		ID:         "t5",
		Title:      "Lemmas 3.4/6.1 — skeleton graphs",
		Reproduces: "Lemmas 3.4, 6.1 (§6)",
		Header: []string{"n", "k", "|S|", "bound n·ln k/k", "G_S edges",
			"max η ratio", "proven 7la²"},
		Notes: []string{
			"Exact lists (a=1) and exact APSP on G_S (l=1): proven factor 7.",
		},
	}
	n := s.Sizes[len(s.Sizes)-1]
	g := graph.RandomConnected(n, 5, graph.WeightRange{Min: 1, Max: 30}, s.rng(5))
	exact := g.ExactAPSP()
	ks := []int{4, 8, 16, 32}
	if s.Quick {
		ks = ks[:2]
	}
	for _, k := range ks {
		if k > n {
			continue
		}
		clq := cc.New(n, 1)
		sk, err := skeleton.Build(clq, skeleton.Input{
			G: g, K: k, A: 1, Lists: g.KNearest(k), Rng: s.rng(int64(k)),
		})
		if err != nil {
			panic(err)
		}
		eta, err := sk.Translate(clq, sk.GS.ExactAPSP())
		if err != nil {
			panic(err)
		}
		maxR, _, _ := quality(eta, exact)
		bound := float64(n)
		if k >= 2 {
			bound = float64(n) * math.Log(float64(k)) / float64(k)
		}
		t.Rows = append(t.Rows, []string{
			i2s(int64(n)), i2s(int64(k)), i2s(int64(len(sk.Nodes))), f2s(bound),
			i2s(int64(sk.GS.NumEdges())), maxR, f2s(skeleton.TranslationFactor(1, 1)),
		})
	}
	return t
}

// T6Scaling reproduces Lemma 8.1: scaled diameters stay under ⌈2/ε⌉·h² and
// the recombined η meets the (1+ε)·l bound on short-hop pairs.
func T6Scaling(s Suite) Table {
	t := Table{
		ID:         "t6",
		Title:      "Lemma 8.1 — weight scaling",
		Reproduces: "Lemma 8.1 (§8.1)",
		Header: []string{"n", "eps", "h", "scales", "distinct graphs",
			"diam cap B·h²", "max diam seen", "max η/d (≤h-hop pairs)", "bound 1+ε"},
	}
	n := s.Sizes[0]
	g := graph.RandomConnected(n, 4, graph.WeightRange{Min: 1, Max: 300}, s.rng(6))
	exact := g.ExactAPSP()
	h := 5
	epss := []float64{0.5, 0.25}
	if !s.Quick {
		epss = append(epss, 0.1)
	}
	for _, eps := range epss {
		delta := degradeEstimate(exact, float64(h), s.rng(int64(1000*eps)))
		sc, err := scaling.Build(g.AsDirected(), h, eps, delta)
		if err != nil {
			panic(err)
		}
		perGraph := make([]*minplus.Dense, len(sc.Graphs))
		var maxDiam int64
		for i, sg := range sc.Graphs {
			perGraph[i] = sg.ExactAPSP()
			if d := perGraph[i].MaxFinite(); d > maxDiam {
				maxDiam = d
			}
		}
		eta, err := sc.Combine(delta, perGraph)
		if err != nil {
			panic(err)
		}
		worst := 1.0
		for u := 0; u < g.N(); u++ {
			hop := g.HopLimited(u, h)
			for v := 0; v < g.N(); v++ {
				d := exact.At(u, v)
				if u == v || minplus.IsInf(d) || hop[v] != d {
					continue
				}
				if r := float64(eta.At(u, v)) / float64(d); r > worst {
					worst = r
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			i2s(int64(n)), f2s(eps), i2s(int64(h)), i2s(int64(sc.NumScales)),
			i2s(int64(len(sc.Graphs))), i2s(sc.Cap), i2s(maxDiam),
			f2s(worst), f2s(1 + eps),
		})
	}
	return t
}

// T7Spanners reproduces Lemma 7.1's stretch/size tradeoff for both spanner
// constructions.
func T7Spanners(s Suite) Table {
	t := Table{
		ID:         "t7",
		Title:      "Lemma 7.1 — spanner stretch/size tradeoffs",
		Reproduces: "Lemma 7.1 ([CZ22]; constructions: Baswana–Sen, greedy)",
		Header: []string{"n", "k", "construction", "edges", "size bound",
			"measured stretch", "stretch bound 2k-1"},
	}
	n := s.Sizes[0]
	g := graph.RandomConnected(n, 10, graph.WeightRange{Min: 1, Max: 40}, s.rng(8))
	ks := []int{2, 3, 4}
	if s.Quick {
		ks = ks[:2]
	}
	for _, k := range ks {
		bs := spanner.BaswanaSen(g, k, s.rng(int64(k)))
		gr := spanner.Greedy(g, k)
		nf := float64(n)
		bsBound := 4 * float64(k) * math.Pow(nf, 1+1.0/float64(k))
		grBound := math.Pow(nf, 1+1.0/float64(k)) + nf
		t.Rows = append(t.Rows, []string{
			i2s(int64(n)), i2s(int64(k)), "baswana-sen",
			i2s(int64(bs.NumEdges())), f2s(bsBound),
			f2s(spanner.MaxStretch(g, bs)), i2s(int64(2*k - 1)),
		})
		t.Rows = append(t.Rows, []string{
			i2s(int64(n)), i2s(int64(k)), "greedy",
			i2s(int64(gr.NumEdges())), f2s(grBound),
			f2s(spanner.MaxStretch(g, gr)), i2s(int64(2*k - 1)),
		})
	}
	return t
}

// T8Reduction reproduces Lemma 3.1: one O(1)-round application reduces the
// approximation factor of a degraded estimate.
func T8Reduction(s Suite) Table {
	t := Table{
		ID:         "t8",
		Title:      "Lemma 3.1 — approximation factor reduction",
		Reproduces: "Lemma 3.1 (§7.2)",
		Header: []string{"n", "a before", "measured before", "measured after",
			"lemma bound 15√a", "proven after", "rounds for step"},
		Notes: []string{
			"Input estimates are exact distances uniformly degraded by factor a.",
			"'proven after' is min(a, 7(2b−1)) with b≈√a: the lemma's 15√a bound",
			"only contracts for a > ≈200, far beyond laptop-scale factors — the",
			"measured column shows the reduction engine works regardless.",
		},
	}
	n := s.Sizes[0]
	g := graph.RandomConnected(n, 5, graph.WeightRange{Min: 1, Max: 40}, s.rng(9))
	exact := g.ExactAPSP()
	factors := []float64{9, 25, 49}
	if s.Quick {
		factors = factors[:2]
	}
	for _, a := range factors {
		delta := degradeEstimate(exact, a, s.rng(int64(a)))
		before, _, _ := core.MeasureQuality(delta, exact)
		clq := cc.New(g.N(), 1)
		est, err := core.ReduceApprox(clq, g, core.Estimate{D: delta, Factor: a}, s.config(int64(a)))
		if err != nil {
			panic(err)
		}
		after, _, _ := core.MeasureQuality(est.D, exact)
		t.Rows = append(t.Rows, []string{
			i2s(int64(n)), f2s(a), f2s(before), f2s(after),
			f2s(15 * math.Sqrt(a)), f2s(est.Factor),
			i2s(clq.Metrics().Rounds),
		})
	}
	return t
}

// T9ZeroWeights reproduces Theorem 2.1: the nonnegative-weight reduction
// adds O(1) rounds and preserves the approximation factor.
func T9ZeroWeights(s Suite) Table {
	t := Table{
		ID:         "t9",
		Title:      "Theorem 2.1 — zero-weight reduction",
		Reproduces: "Theorem 2.1 (Appendix A)",
		Header: []string{"n", "components", "inner algorithm", "total rounds",
			"reduction-phase rounds", "max ratio", "exact?"},
	}
	for _, n := range s.Sizes {
		g, groups := graph.ZeroClusters(n, max(2, n/8), graph.WeightRange{Min: 1, Max: 30}, s.rng(10))
		comps := countDistinct(groups)
		exact := g.ExactAPSP()
		type innerRun struct {
			name  string
			inner core.Algorithm
		}
		inners := []innerRun{
			{"bruteforce (exact)", func(c *cc.Clique, cg *graph.Graph, cf core.Config) (core.Estimate, error) {
				return core.BruteForce(c, cg), nil
			}},
			{"thm1.1 constant", core.APSP},
		}
		if s.Quick {
			inners = inners[:1]
		}
		for _, ir := range inners {
			clq := cc.New(g.N(), 1)
			est, err := core.WithZeroWeights(clq, g, s.config(int64(n)), ir.inner)
			if err != nil {
				panic(err)
			}
			m := clq.Metrics()
			var zwRounds int64
			if p, ok := m.PhaseByName("zeroweights"); ok {
				zwRounds = p.Rounds
			}
			maxR, _, _ := quality(est.D, exact)
			t.Rows = append(t.Rows, []string{
				i2s(int64(g.N())), i2s(int64(comps)), ir.name, i2s(m.Rounds),
				i2s(zwRounds), maxR, fmt.Sprintf("%v", est.D.Equal(exact)),
			})
		}
	}
	return t
}

// F1RoundGrowth reproduces the round-growth figure: rounds versus n per
// algorithm. The paper's claim is the shape — O(log log log n) (flat) for
// Theorem 1.1 versus polynomial growth for the exact baseline.
func F1RoundGrowth(s Suite) Table {
	specs := comparisonSpecs()
	header := []string{"n"}
	for _, spec := range specs {
		header = append(header, spec.Name+" rounds")
	}
	t := Table{
		ID:         "f1",
		Title:      "Figure — round growth vs n",
		Reproduces: "Theorem 1.1 round complexity (shape)",
		Header:     header,
		Notes: []string{
			"Expected shape: exact grows like log n·n^{1/3}; the approximate",
			"algorithms' round counts are dominated by broadcast volume constants.",
		},
	}
	for _, n := range s.Sizes {
		g := graph.RandomConnected(n, 5, graph.WeightRange{Min: 1, Max: 50}, s.rng(int64(n)))
		row := []string{i2s(int64(n))}
		for _, spec := range specs {
			clq := cc.New(g.N(), spec.BandwidthFor(g.N(), 0))
			if _, err := spec.Run(clq, g, s.config(int64(n)), registry.Params{T: 1}); err != nil {
				panic(err)
			}
			row = append(row, i2s(clq.Metrics().Rounds))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// F2Frontier reproduces the approximation-versus-rounds frontier of
// Theorem 1.2 across sizes.
func F2Frontier(s Suite) Table {
	t := Table{
		ID:         "f2",
		Title:      "Figure — approximation/rounds frontier (Theorem 1.2)",
		Reproduces: "Theorem 1.2 (shape)",
		Header:     []string{"n", "t", "rounds", "max ratio", "proven bound"},
	}
	ts := []int{1, 2, 3}
	if s.Quick {
		ts = ts[:2]
	}
	for _, n := range s.Sizes {
		g := graph.RandomConnected(n, 5, graph.WeightRange{Min: 1, Max: 50}, s.rng(int64(2*n)))
		exact := g.ExactAPSP()
		for _, tt := range ts {
			clq := cc.New(g.N(), 1)
			est, err := core.Tradeoff(clq, g, tt, s.config(int64(n+tt)))
			if err != nil {
				panic(err)
			}
			maxR, _, _ := quality(est.D, exact)
			t.Rows = append(t.Rows, []string{
				i2s(int64(g.N())), i2s(int64(tt)), i2s(clq.Metrics().Rounds),
				maxR, f2s(est.Factor),
			})
		}
	}
	return t
}

// Render formats a table as aligned plain text.
func Render(t Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", strings.ToUpper(t.ID), t.Title)
	fmt.Fprintf(&b, "   reproduces: %s\n", t.Reproduces)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", note)
	}
	return b.String()
}

// RenderMarkdown formats a table as a Markdown section.
func RenderMarkdown(t Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(t.ID), t.Title)
	fmt.Fprintf(&b, "*Reproduces:* %s\n\n", t.Reproduces)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", note)
	}
	b.WriteString("\n")
	return b.String()
}

func degradeEstimate(exact *minplus.Dense, a float64, rng *rand.Rand) *minplus.Dense {
	n := exact.N()
	d := minplus.NewDense(n)
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			e := exact.At(u, v)
			if minplus.IsInf(e) {
				continue
			}
			val := int64(math.Floor(float64(e) * (1 + rng.Float64()*(a-1))))
			if val < e {
				val = e
			}
			d.Set(u, v, val)
			d.Set(v, u, val)
		}
	}
	return d
}

func sampleSources(n, count int, rng *rand.Rand) []int {
	if count >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)[:count]
	sort.Ints(perm)
	return perm
}

func listsEqual(a, b [][]graph.NodeDist) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return false
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				return false
			}
		}
	}
	return true
}

func countDistinct(xs []int) int {
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}

func intSqrt(n int) int {
	k := int(math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

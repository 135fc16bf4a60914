package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/synth"
)

// resourcedDB generates a synthetic database and renumbers its sources to
// 2i − n, so about half of them are negative: the leaf keys store sources
// as int32, and their sort order must agree with the int order the join
// compares in.
func resourcedDB(t *testing.T, n int, seed uint64) *gene.Database {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: n, NMin: 5, NMax: 12, LMin: 8, LMax: 14,
		Dist: synth.Uniform, GenePool: 30, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := gene.NewDatabase()
	for i, m := range ds.DB.Matrices() {
		cols := make([]int, m.NumGenes())
		for j := range cols {
			cols[j] = j
		}
		rm, err := m.SubMatrix(2*i-n, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add(rm); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// bruteLeafScan is the reference for leafScanGroup: the |ea|×|eb| nested
// loop over the leaves' items, testing gene, source and pivot bound per
// pair for one member.
func bruteLeafScan(ts *travState, ea, eb *rstar.Node, d int, gamma float64, oneSided, disPivot bool) (pairs []candidatePair, checked, pruned int) {
	for i := 0; i < ea.NumEntries(); i++ {
		ia := ea.Item(i)
		if gene.ID(int32(ia.Point[len(ia.Point)-1])) != ts.gsGene {
			continue
		}
		srcA, colA := index.UnpackRef(ia.Ref)
		for j := 0; j < eb.NumEntries(); j++ {
			ib := eb.Item(j)
			if !slices.Contains(ts.neighbors, gene.ID(int32(ib.Point[len(ib.Point)-1]))) {
				continue
			}
			srcB, colB := index.UnpackRef(ib.Ref)
			if srcA != srcB {
				continue
			}
			checked++
			if !disPivot && index.PointUpperBound(ia.Point, ib.Point, d, oneSided) <= gamma {
				pruned++
				continue
			}
			pairs = append(pairs, candidatePair{source: srcA, sCol: colA, tCol: colB})
		}
	}
	return pairs, checked, pruned
}

func sortPairs(ps []candidatePair) {
	slices.SortFunc(ps, func(a, b candidatePair) int {
		if a.source != b.source {
			return a.source - b.source
		}
		if a.sCol != b.sCol {
			return a.sCol - b.sCol
		}
		return a.tCol - b.tCol
	})
}

// TestLeafScanGroupMatchesNestedLoop: over every ordered pair of leaves of
// a small-fanout index — including each leaf paired with itself — and
// groups of members with different anchor and neighbor genes (some absent
// from the database, some negative), the sorted-key merge join gives each
// live member the nested loop's candidate-pair multiset and exactly its
// PointPairsChecked/PointPairsPruned, and leaves dead members untouched.
func TestLeafScanGroupMatchesNestedLoop(t *testing.T) {
	db := resourcedDB(t, 40, 71)
	idx, err := index.Build(db, index.Options{D: 2, Samples: 16, Seed: 71, MaxFill: 6})
	if err != nil {
		t.Fatal(err)
	}
	var leaves []*rstar.Node
	idx.Tree().Walk(func(n *rstar.Node) bool {
		if n.IsLeaf() {
			leaves = append(leaves, n)
		}
		return true
	})
	universe := db.GeneUniverse()
	rng := randgen.New(72)
	pick := func() gene.ID {
		switch rng.Intn(12) {
		case 0:
			return gene.ID(-1 - rng.Intn(3)) // never indexed
		case 1:
			return universe[len(universe)-1] + 1 + gene.ID(rng.Intn(3)) // never indexed
		}
		return universe[rng.Intn(len(universe))]
	}
	for trial := 0; trial < 12; trial++ {
		size := 1 + rng.Intn(5)
		group := make([]*travState, size)
		for bi := range group {
			ts := &travState{gsGene: pick(), st: &Stats{}}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				if g := pick(); g != ts.gsGene && !slices.Contains(ts.neighbors, g) {
					ts.neighbors = append(ts.neighbors, g)
				}
			}
			group[bi] = ts
		}
		if trial%3 == 0 {
			// Several members on one anchor, with different neighbors.
			for _, ts := range group[1:] {
				ts.gsGene = group[0].gsGene
				ts.neighbors = slices.DeleteFunc(ts.neighbors, func(g gene.ID) bool { return g == ts.gsGene })
			}
		}
		nbrs := neighborTable(group)
		gamma := []float64{0, 0.3, 0.6, 0.9}[trial%4]
		oneSided, disPivot := trial%2 == 1, trial%5 == 4
		mask := uint64(1)<<uint(size) - 1
		if size > 1 && trial%4 == 2 {
			mask &^= 1 // member 0 is dead on every pair
		}
		label := fmt.Sprintf("trial %d (γ=%g oneSided=%v disPivot=%v)", trial, gamma, oneSided, disPivot)
		want := make([]Stats, size)
		wantPairs := make([][]candidatePair, size)
		for _, ea := range leaves {
			for _, eb := range leaves {
				leafScanGroup(idx, group, nbrs, mask, ea, eb, idx.D(), gamma, oneSided, disPivot)
				for bi, ts := range group {
					if mask&(1<<uint(bi)) == 0 {
						continue
					}
					p, c, pr := bruteLeafScan(ts, ea, eb, idx.D(), gamma, oneSided, disPivot)
					wantPairs[bi] = append(wantPairs[bi], p...)
					want[bi].PointPairsChecked += c
					want[bi].PointPairsPruned += pr
				}
			}
		}
		checked := 0
		for bi, ts := range group {
			if ts.st.PointPairsChecked != want[bi].PointPairsChecked || ts.st.PointPairsPruned != want[bi].PointPairsPruned {
				t.Errorf("%s member %d: checked/pruned %d/%d, nested loop %d/%d", label, bi,
					ts.st.PointPairsChecked, ts.st.PointPairsPruned, want[bi].PointPairsChecked, want[bi].PointPairsPruned)
			}
			sortPairs(ts.pairs)
			sortPairs(wantPairs[bi])
			if !slices.Equal(ts.pairs, wantPairs[bi]) {
				t.Errorf("%s member %d: %d candidate pairs, nested loop %d (or different pairs)",
					label, bi, len(ts.pairs), len(wantPairs[bi]))
			}
			checked += want[bi].PointPairsChecked
		}
		if trial == 1 && checked == 0 {
			t.Fatalf("%s: no point pair reached the pivot test; the fixture exercises nothing", label)
		}
	}
}

// TestDescentAfterIndexUpdates: the leaf keys are rebuilt with the
// signatures, so queries stay exact on an index grown by AddMatrix,
// shrunk by RemoveMatrix, and saved and loaded again — each checked
// against the materialized Baseline over the same database.
func TestDescentAfterIndexUpdates(t *testing.T) {
	full := resourcedDB(t, 36, 73)
	db := gene.NewDatabase()
	for _, m := range full.Matrices()[:24] {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := index.Build(db, index.Options{D: 2, Samples: 16, Seed: 73, MaxFill: 8})
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Gamma: 0.3, Alpha: 0.1, Seed: 74, Analytic: true}
	rng := randgen.New(75)
	check := func(stage string, idx *index.Index) {
		t.Helper()
		proc, err := NewProcessor(idx, params)
		if err != nil {
			t.Fatal(err)
		}
		base, err := BuildBaseline(idx.DB(), params)
		if err != nil {
			t.Fatal(err)
		}
		matched, traversed := 0, 0
		for qi := 0; qi < 8; qi++ {
			m := idx.DB().Matrix(rng.Intn(idx.DB().Len()))
			cols := rng.Perm(m.NumGenes())[:3+rng.Intn(2)]
			mq, err := m.SubMatrix(-1000-qi, cols)
			if err != nil {
				t.Fatal(err)
			}
			q, err := proc.InferQueryGraph(mq)
			if err != nil {
				t.Fatal(err)
			}
			ans, st, err := proc.QueryGraph(q)
			if err != nil {
				t.Fatal(err)
			}
			bAns, _, err := base.QueryGraph(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(ans) != len(bAns) {
				t.Fatalf("%s query %d: %d answers, baseline %d", stage, qi, len(ans), len(bAns))
			}
			for i := range ans {
				if ans[i].Source != bAns[i].Source || ans[i].Prob != bAns[i].Prob {
					t.Fatalf("%s query %d answer %d: (%d, %v), baseline (%d, %v)", stage, qi, i,
						ans[i].Source, ans[i].Prob, bAns[i].Source, bAns[i].Prob)
				}
			}
			matched += len(ans)
			traversed += st.PointPairsChecked
		}
		if matched == 0 || traversed == 0 {
			t.Fatalf("%s: %d answers over %d checked point pairs; the queries exercise nothing", stage, matched, traversed)
		}
	}

	check("built", idx)
	for _, m := range full.Matrices()[24:] {
		if err := idx.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
	}
	check("after AddMatrix", idx)
	for _, m := range full.Matrices()[4:16:16] {
		if m.Source%3 == 0 {
			continue
		}
		if err := idx.RemoveMatrix(m.Source); err != nil {
			t.Fatal(err)
		}
	}
	check("after RemoveMatrix", idx)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := index.Load(&buf, idx.DB())
	if err != nil {
		t.Fatal(err)
	}
	check("after Save/Load", loaded)
}

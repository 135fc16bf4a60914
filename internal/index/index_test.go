package index

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/imgrn/imgrn/internal/bitvec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/pagestore"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/synth"
)

func smallDataset(t *testing.T, n int, seed uint64) *synth.Dataset {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: n, NMin: 5, NMax: 12, LMin: 8, LMax: 14,
		Dist: synth.Uniform, GenePool: 40, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPackUnpackRef(t *testing.T) {
	cases := []struct{ source, col int }{
		{0, 0}, {1, 2}, {1 << 20, 99}, {-1, 5}, {-3, 0},
	}
	for _, c := range cases {
		s, col := UnpackRef(PackRef(c.source, c.col))
		if s != c.source || col != c.col {
			t.Errorf("round trip (%d,%d) -> (%d,%d)", c.source, c.col, s, col)
		}
	}
}

func TestBuildBasics(t *testing.T) {
	ds := smallDataset(t, 20, 1)
	idx, err := Build(ds.DB, Options{D: 2, Samples: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantVectors := 0
	for _, m := range ds.DB.Matrices() {
		wantVectors += m.NumGenes()
	}
	if idx.Tree().Size() != wantVectors {
		t.Errorf("tree size = %d, want %d", idx.Tree().Size(), wantVectors)
	}
	if idx.Stats().Vectors != wantVectors {
		t.Errorf("stats vectors = %d", idx.Stats().Vectors)
	}
	if idx.D() != 2 || idx.Tree().Dim() != 5 {
		t.Errorf("dimensions: D=%d treeDim=%d", idx.D(), idx.Tree().Dim())
	}
	for _, m := range ds.DB.Matrices() {
		emb := idx.Embedding(m.Source)
		if emb == nil {
			t.Fatalf("no embedding for source %d", m.Source)
		}
		if len(emb.X) != m.NumGenes() {
			t.Errorf("embedding rows = %d, want %d", len(emb.X), m.NumGenes())
		}
	}
	if msg := idx.Tree().CheckInvariants(); msg != "" {
		t.Errorf("tree invariants: %s", msg)
	}
	// Construction I/O must not leak into query accounting.
	if got := idx.Accountant().Stats().Accesses; got != 0 {
		t.Errorf("accesses after build = %d, want 0", got)
	}
}

func TestInvertedFileMembership(t *testing.T) {
	ds := smallDataset(t, 15, 2)
	idx, err := Build(ds.DB, Options{D: 1, Samples: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	inv := idx.Inverted()
	for _, m := range ds.DB.Matrices() {
		for _, g := range m.Genes() {
			sig := inv.Sources(g)
			if !sig.Test(bitvec.HashSource(m.Source, idx.Bits())) {
				t.Fatalf("IF missing source %d for gene %d", m.Source, g)
			}
		}
	}
}

// TestSignaturesNoFalseNegatives: every node's V_f/V_d must include the
// hash bit of every gene/source beneath it, at every level.
func TestSignaturesNoFalseNegatives(t *testing.T) {
	ds := smallDataset(t, 25, 3)
	idx, err := Build(ds.DB, Options{D: 2, Samples: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := idx.Bits()
	var check func(n *rstar.Node)
	check = func(n *rstar.Node) {
		f, d := idx.NodeSignature(n)
		var genes []gene.ID
		var sources []int
		var collect func(m *rstar.Node)
		collect = func(m *rstar.Node) {
			if m.IsLeaf() {
				for i := 0; i < m.NumEntries(); i++ {
					it := m.Item(i)
					src, _ := UnpackRef(it.Ref)
					genes = append(genes, gene.ID(int32(it.Point[len(it.Point)-1])))
					sources = append(sources, src)
				}
				return
			}
			for i := 0; i < m.NumEntries(); i++ {
				collect(m.Child(i))
			}
		}
		collect(n)
		for _, g := range genes {
			if !f.Test(bitvec.HashGene(g, b)) {
				t.Fatalf("node missing gene bit for %d", g)
			}
		}
		for _, s := range sources {
			if !d.Test(bitvec.HashSource(s, b)) {
				t.Fatalf("node missing source bit for %d", s)
			}
		}
		if !n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				check(n.Child(i))
			}
		}
	}
	check(idx.Tree().Root())
}

// TestIndexPrunableSoundness: whenever Lemma 6 prunes a node pair, the
// point-level pivot bound of every same-source pair inside is ≤ γ.
func TestIndexPrunableSoundness(t *testing.T) {
	rng := randgen.New(110)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		d := 1 + r.Intn(3)
		dim := 2*d + 1
		// Random plausible embedded points: x in [0,2], y in [1, 1.415].
		mk := func() []float64 {
			p := make([]float64, dim)
			for w := 0; w < d; w++ {
				p[2*w] = r.UniformIn(0, 2)
				p[2*w+1] = r.UniformIn(1, 1.415)
			}
			return p
		}
		var as, bs [][]float64
		ra := rstar.EmptyRect(dim)
		rb := rstar.EmptyRect(dim)
		for i := 0; i < 4; i++ {
			pa, pb := mk(), mk()
			as = append(as, pa)
			bs = append(bs, pb)
			ra.ExpandPoint(pa)
			rb.ExpandPoint(pb)
		}
		for _, gamma := range []float64{0.2, 0.5, 0.8, 0.95} {
			for _, oneSided := range []bool{false, true} {
				if !IndexPrunable(ra, rb, d, gamma, oneSided) {
					continue
				}
				for _, pa := range as {
					for _, pb := range bs {
						if PointUpperBound(pa, pb, d, oneSided) > gamma {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChargeColumnRead(t *testing.T) {
	ds := smallDataset(t, 5, 4)
	idx, err := Build(ds.DB, Options{D: 1, Samples: 8, Seed: 4, PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	m := ds.DB.Matrix(0)
	idx.Accountant().ResetStats()
	idx.ChargeColumnRead(m.Source, 0)
	// One column = samples×8 bytes over 64-byte pages.
	wantPages := (m.Samples()*8 + 63) / 64
	if got := int(idx.Accountant().Stats().Accesses); got < 1 || got > wantPages+1 {
		t.Errorf("column read charged %d pages, want ≈ %d", got, wantPages)
	}
	// Unknown source is a no-op.
	idx.Accountant().ResetStats()
	idx.ChargeColumnRead(9999, 0)
	if got := idx.Accountant().Stats().Accesses; got != 0 {
		t.Errorf("unknown source charged %d pages", got)
	}
}

func TestRandomPivotsOption(t *testing.T) {
	ds := smallDataset(t, 10, 5)
	idx, err := Build(ds.DB, Options{D: 2, Samples: 8, Seed: 5, RandomPivots: true})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Tree().Size() == 0 {
		t.Error("random-pivot index is empty")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.D != 2 || o.Bits != bitvec.DefaultBits || o.MaxFill == 0 || o.Samples == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// TestFetchStdColumnRoundTrip: refinement reads standardized vectors from
// the simulated heap; the bytes must round-trip bit-exactly and be charged
// as page I/O.
func TestFetchStdColumnRoundTrip(t *testing.T) {
	ds := smallDataset(t, 6, 6)
	idx, err := Build(ds.DB, Options{D: 1, Samples: 8, Seed: 6, PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	idx.Accountant().ResetStats()
	var buf []float64
	for _, m := range ds.DB.Matrices() {
		for j := 0; j < m.NumGenes(); j++ {
			buf, err = idx.FetchStdColumn(m.Source, j, buf)
			if err != nil {
				t.Fatal(err)
			}
			want := m.StdCol(j)
			if len(buf) != len(want) {
				t.Fatalf("fetched %d values, want %d", len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("source %d col %d row %d: %v != %v",
						m.Source, j, i, buf[i], want[i])
				}
			}
		}
	}
	if idx.Accountant().Stats().Accesses == 0 {
		t.Error("heap reads were not charged")
	}
	if _, err := idx.FetchStdColumn(9999, 0, nil); err == nil {
		t.Error("unknown source should error")
	}
}

// TestFetchStdColumnToNoAllocSameCharges: with a warmed destination a
// column fetch allocates nothing, and one reader fetching every column
// ends with exactly the counters of a reader touched, page by page, over
// each column's byte range [col·colBytes, (col+1)·colBytes) of its heap run.
func TestFetchStdColumnToNoAllocSameCharges(t *testing.T) {
	ds := smallDataset(t, 6, 7)
	idx, err := Build(ds.DB, Options{D: 1, Samples: 8, Seed: 7, PageSize: 64, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, want := idx.NewReader(), idx.NewReader()
	ps := got.PageSize()
	dst := make([]float64, 0, 64)
	for _, m := range ds.DB.Matrices() {
		h := idx.heap[m.Source]
		for j := 0; j < m.NumGenes(); j++ {
			if dst, err = idx.FetchStdColumnTo(got, m.Source, j, dst); err != nil {
				t.Fatal(err)
			}
			start, end := j*h.colBytes, (j+1)*h.colBytes
			for p := start / ps; p <= (end-1)/ps; p++ {
				want.Touch(h.first + pagestore.PageID(p))
			}
		}
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("fetch charges %+v, page-by-page charges %+v", got.Stats(), want.Stats())
	}

	src := ds.DB.Matrices()[0].Source
	allocs := testing.AllocsPerRun(100, func() {
		dst, _ = idx.FetchStdColumnTo(got, src, 1, dst)
	})
	if allocs != 0 {
		t.Fatalf("FetchStdColumnTo with a warmed dst allocates %v times per call", allocs)
	}
}

// TestPointUpperBoundMatchesCoords: the in-place bound over interleaved
// leaf points equals pivot.UpperBoundCoords on the split coordinates bit
// for bit, on random points for several pivot counts and both measures,
// and allocates nothing.
func TestPointUpperBoundMatchesCoords(t *testing.T) {
	rng := randgen.New(91)
	for d := 1; d <= 4; d++ {
		for trial := 0; trial < 500; trial++ {
			ps := make([]float64, 2*d+1)
			pt := make([]float64, 2*d+1)
			for k := 0; k < 2*d; k++ {
				ps[k] = rng.Float64() * 2
				pt[k] = rng.Float64() * 2
			}
			xs, ys := make([]float64, d), make([]float64, d)
			xt, yt := make([]float64, d), make([]float64, d)
			for r := 0; r < d; r++ {
				xs[r], ys[r] = ps[2*r], ps[2*r+1]
				xt[r], yt[r] = pt[2*r], pt[2*r+1]
			}
			for _, oneSided := range []bool{false, true} {
				got := PointUpperBound(ps, pt, d, oneSided)
				if want := pivot.UpperBoundCoords(xs, ys, xt, yt, oneSided); got != want {
					t.Fatalf("d=%d oneSided=%v: PointUpperBound %v, UpperBoundCoords %v", d, oneSided, got, want)
				}
			}
		}
	}
	ps := []float64{0.4, 0.9, 1.1, 1.3, 7}
	pt := []float64{1.2, 0.8, 0.3, 1.0, 9}
	if allocs := testing.AllocsPerRun(100, func() { PointUpperBound(ps, pt, 2, false) }); allocs != 0 {
		t.Errorf("PointUpperBound allocates %v times per call, want 0", allocs)
	}
}

// TestLeafKeysMatchEntries: every leaf's keys list its entries exactly
// once, sorted by (source, gene), after Build, AddMatrix, RemoveMatrix and
// a Save/Load round trip.
func TestLeafKeysMatchEntries(t *testing.T) {
	ds := smallDataset(t, 16, 92)
	db := gene.NewDatabase()
	for _, m := range ds.DB.Matrices()[:12] {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := Build(db, Options{D: 2, Samples: 16, Seed: 92, MaxFill: 6})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, x *Index) {
		t.Helper()
		leaves := 0
		x.Tree().Walk(func(n *rstar.Node) bool {
			if !n.IsLeaf() {
				if x.LeafKeys(n).Len() != 0 {
					t.Fatalf("%s: internal node carries leaf keys", stage)
				}
				return true
			}
			leaves++
			k := x.LeafKeys(n)
			if k.Len() != n.NumEntries() {
				t.Fatalf("%s: leaf of %d entries has %d keys", stage, n.NumEntries(), k.Len())
			}
			seen := make([]bool, n.NumEntries())
			for i := 0; i < k.Len(); i++ {
				it := n.Item(int(k.Pos[i]))
				src, _ := UnpackRef(it.Ref)
				if seen[k.Pos[i]] || int(k.Source[i]) != src || gene.ID(k.Gene[i]) != gene.ID(int32(it.Point[len(it.Point)-1])) {
					t.Fatalf("%s: key %d does not describe entry %d", stage, i, k.Pos[i])
				}
				seen[k.Pos[i]] = true
				if i > 0 && (k.Source[i-1] > k.Source[i] || k.Source[i-1] == k.Source[i] && k.Gene[i-1] >= k.Gene[i]) {
					t.Fatalf("%s: keys %d, %d out of (source, gene) order", stage, i-1, i)
				}
			}
			return true
		})
		if leaves < 2 {
			t.Fatalf("%s: %d leaves; the fixture exercises nothing", stage, leaves)
		}
	}
	check("built", idx)
	for _, m := range ds.DB.Matrices()[12:] {
		if err := idx.AddMatrix(m); err != nil {
			t.Fatal(err)
		}
	}
	check("after AddMatrix", idx)
	for _, m := range ds.DB.Matrices()[2:6] {
		if err := idx.RemoveMatrix(m.Source); err != nil {
			t.Fatal(err)
		}
	}
	check("after RemoveMatrix", idx)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, idx.DB())
	if err != nil {
		t.Fatal(err)
	}
	check("after Save/Load", loaded)
}

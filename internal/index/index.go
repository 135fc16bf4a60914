// Package index implements the IM-GRN indexing mechanism of Section 5.1:
// every gene feature vector of every database matrix is embedded via its
// matrix's pivots into a (2d+1)-dimensional point (2d pivot coordinates
// plus the integer gene ID), the points are stored in an R*-tree whose
// nodes carry bit-vector signatures of the gene IDs (V_f) and data-source
// IDs (V_d) beneath them, and an inverted bit-vector file IF maps each gene
// to the signature of the sources containing it. Index nodes and matrix
// columns are mapped onto simulated disk pages so queries report the I/O
// cost metric of Section 6.
//
// # Persistence
//
// Save/Load serialize a built index in the little-endian "IMGRNIX1"
// format so the Monte Carlo embedding phase runs once. The header after
// the 8-byte magic is five uint32 structural fields — d (pivots per
// matrix), bits (signature width B), pageSize, buffer (LRU buffer-pool
// pages) and maxFill (R*-tree node capacity) — followed by a uint32
// count of embedded sources; then per source the pivot columns and X/Y
// embedding coordinates, and finally the flat list of (2d+1)-dim leaf
// points. Only those five Options fields are structural enough to store:
// behavioural options (Seed, Samples, Workers, pivot selection) are not
// in the file, so a loaded index cannot embed new matrices until
// RestoreOptions reinstalls them — the durable store (internal/shard)
// persists the full Options in its MANIFEST for exactly this purpose.
// The R*-tree itself is not stored; it is rebuilt deterministically by
// bulk-loading the points, and signatures, page mapping and the inverted
// file are recomputed at load time (all cheap relative to embedding).
// See persist.go for the byte-level layout and DESIGN.md §12 for the
// snapshot container that wraps this format.
package index

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/imgrn/imgrn/internal/bitvec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/pagestore"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/stats"
)

// Options configures index construction.
type Options struct {
	// D is the number of pivots per matrix (Table 2 default: 2).
	D int
	// Samples is the Monte Carlo sample count for the expected randomized
	// distances of the embedding (stats.DefaultSamples when 0).
	Samples int
	// Bits is the bit-vector signature width B (bitvec.DefaultBits when 0).
	Bits int
	// Seed drives pivot selection and embedding estimation.
	Seed uint64
	// PageSize is the simulated disk page size (pagestore.DefaultPageSize
	// when 0).
	PageSize int
	// BufferPages is the LRU buffer pool capacity in pages (0 = unbuffered,
	// every node touch is one page access).
	BufferPages int
	// MaxFill is the R*-tree node capacity (rstar.DefaultMaxFill when 0).
	MaxFill int
	// Selection tunes the Figure-3 pivot search (pivot.DefaultSelection
	// when zero).
	Selection pivot.SelectionParams
	// RandomPivots skips the cost-model search and picks pivots uniformly
	// at random — the ablation baseline for the Figure-3 algorithm.
	RandomPivots bool
	// Workers bounds the parallelism of the per-matrix embedding work
	// during construction (runtime.NumCPU() when 0, 1 forces serial).
	// Results are deterministic regardless of worker count: every matrix
	// derives its randomness from (Seed, Source) alone.
	Workers int
	// NaturalSTRLayout bulk-loads with plain coordinate-order STR instead
	// of gene-ID-primary clustering — the ablation baseline showing why
	// the paper includes the gene dimension in the index (Section 5.1).
	NaturalSTRLayout bool
}

func (o Options) withDefaults() Options {
	if o.D <= 0 {
		o.D = 2
	}
	if o.Samples <= 0 {
		o.Samples = stats.DefaultSamples
	}
	if o.Bits <= 0 {
		o.Bits = bitvec.DefaultBits
	}
	if o.PageSize <= 0 {
		o.PageSize = pagestore.DefaultPageSize
	}
	if o.MaxFill <= 0 {
		o.MaxFill = rstar.DefaultMaxFill
	}
	if o.Selection == (pivot.SelectionParams{}) {
		o.Selection = pivot.DefaultSelection
	}
	return o
}

// signature is the node augmentation: V_f and V_d of Section 5.1, plus
// the sorted entry keys of a leaf.
type signature struct {
	f *bitvec.Vector // gene-ID signature
	d *bitvec.Vector // data-source signature
	// keys are a leaf's entry keys (nil on internal nodes).
	keys LeafKeys
}

// LeafKeys are one leaf's entry keys sorted by (source, gene), as parallel
// int32 arrays: key k belongs to the leaf's entry Pos[k], whose point lies
// in data source Source[k] and carries gene Gene[k]. They let the
// leaf-level point-pair checks (Figure 4 lines 16–21) join two leaves on
// source without loading any entry's point.
type LeafKeys struct {
	Source, Gene, Pos []int32
}

// Len returns the number of keys.
func (k LeafKeys) Len() int { return len(k.Pos) }

// heapInfo locates one matrix's column data in the simulated heap file.
type heapInfo struct {
	first    pagestore.PageID
	colBytes int
}

// encodeStdColumns serializes a matrix's standardized columns back to back
// (column j at byte offset j·l·8) for the heap store.
func encodeStdColumns(m *gene.Matrix) []byte {
	l := m.Samples()
	buf := make([]byte, m.NumGenes()*l*8)
	for j := 0; j < m.NumGenes(); j++ {
		col := m.StdCol(j)
		base := j * l * 8
		for i, v := range col {
			putFloat64(buf[base+8*i:], v)
		}
	}
	return buf
}

func putFloat64(b []byte, v float64) {
	bits := math.Float64bits(v)
	for k := 0; k < 8; k++ {
		b[k] = byte(bits >> (8 * k))
	}
}

func getFloat64(b []byte) float64 {
	var bits uint64
	for k := 0; k < 8; k++ {
		bits |= uint64(b[k]) << (8 * k)
	}
	return math.Float64frombits(bits)
}

// BuildStats reports index construction effort (Figure 13).
type BuildStats struct {
	Elapsed      time.Duration
	Vectors      int
	TreeNodes    int
	TreeHeight   int
	Pages        uint64
	PivotCostSum float64 // Σ_i T_i after selection, diagnostic
}

// Index is the composite IM-GRN index over one database.
type Index struct {
	db   *gene.Database
	opts Options

	tree       *rstar.Tree
	embeddings map[int]*pivot.Embedding // by data source ID
	inverted   *bitvec.InvertedFile
	acc        *pagestore.Accountant
	store      *pagestore.Store // heap file holding standardized columns
	heap       map[int]heapInfo

	stats BuildStats
}

// PackRef encodes (source, col) into an item reference.
func PackRef(source, col int) uint64 {
	return uint64(uint32(source))<<32 | uint64(uint32(col))
}

// UnpackRef decodes an item reference into (source, col). Source IDs are
// sign-extended so negative sources (e.g. organism base matrices) round-trip.
func UnpackRef(ref uint64) (source, col int) {
	return int(int32(ref >> 32)), int(int32(ref))
}

// Build constructs the index over db.
func Build(db *gene.Database, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	start := time.Now()

	idx := &Index{
		db:         db,
		opts:       opts,
		embeddings: make(map[int]*pivot.Embedding, db.Len()),
		inverted:   newInvertedFromDB(db, opts.Bits),
		acc:        pagestore.New(opts.PageSize, opts.BufferPages),
		heap:       make(map[int]heapInfo, db.Len()),
	}
	idx.store = pagestore.NewStore(idx.acc)

	dim := 2*opts.D + 1
	cfg := treeConfig(dim, opts.MaxFill)
	if opts.NaturalSTRLayout {
		cfg = rstar.Config{Dim: dim, MaxFill: opts.MaxFill}
	}
	tree, err := rstar.NewTree(cfg)
	if err != nil {
		return nil, err
	}
	idx.tree = tree

	results, err := embedAll(db, opts)
	if err != nil {
		return nil, err
	}
	var items []rstar.Item
	for i, m := range db.Matrices() {
		if m.NumGenes() == 0 {
			continue
		}
		emb := results[i].emb
		idx.stats.PivotCostSum += results[i].cost
		idx.embeddings[m.Source] = emb
		for j := 0; j < m.NumGenes(); j++ {
			pt := make([]float64, dim)
			emb.Point(j, pt[:2*opts.D])
			pt[dim-1] = float64(m.Gene(j))
			items = append(items, rstar.Item{Point: pt, Ref: PackRef(m.Source, j)})
		}
		// Lay the matrix's standardized columns out in the heap file.
		first := idx.store.Append(encodeStdColumns(m))
		idx.heap[m.Source] = heapInfo{first: first, colBytes: m.Samples() * 8}
	}
	if err := tree.BulkLoad(items); err != nil {
		return nil, err
	}
	idx.stats.Pages = uint64(tree.AssignPages(idx.acc))
	idx.buildSignatures()

	idx.stats.Elapsed = time.Since(start)
	idx.stats.Vectors = len(items)
	idx.stats.TreeNodes = tree.NodeCount()
	idx.stats.TreeHeight = tree.Height()
	idx.acc.ResetStats() // construction I/O is not query I/O
	return idx, nil
}

// treeConfig is the R*-tree configuration of the IM-GRN index: the
// gene-ID coordinate (the last dimension) is the primary bulk-loading
// axis, packed fully sorted, so nodes span tight gene-ID ranges — the
// paper's rationale for including the gene dimension ("group those genes
// with the same gene names/IDs together in the index, in order to reduce
// the search cost", Section 5.1). The traversal prunes node pairs whose
// gene ranges cannot contain the query genes.
func treeConfig(dim, maxFill int) rstar.Config {
	order := make([]int, dim)
	order[0] = dim - 1 // gene ID first
	for i := 1; i < dim; i++ {
		order[i] = i - 1
	}
	return rstar.Config{Dim: dim, MaxFill: maxFill, AxisOrder: order, PrimaryAxisFull: true}
}

// newInvertedFromDB builds the inverted bit-vector file IF directly from
// the database contents (Section 5.1).
func newInvertedFromDB(db *gene.Database, bits int) *bitvec.InvertedFile {
	inv := bitvec.NewInvertedFile(bits)
	for _, m := range db.Matrices() {
		for _, g := range m.Genes() {
			inv.Add(g, m.Source)
		}
	}
	return inv
}

// buildSignatures computes V_f and V_d bottom-up (bit-OR aggregation) and
// the sorted entry keys of every leaf.
func (x *Index) buildSignatures() {
	b := x.opts.Bits
	x.tree.WalkBottomUp(func(n *rstar.Node) {
		sig := &signature{f: bitvec.New(b), d: bitvec.New(b)}
		if n.IsLeaf() {
			sig.keys = leafKeys(n)
			for k := range sig.keys.Pos {
				sig.f.Set(bitvec.HashGene(gene.ID(sig.keys.Gene[k]), b))
				sig.d.Set(bitvec.HashSource(int(sig.keys.Source[k]), b))
			}
		} else {
			for i := 0; i < n.NumEntries(); i++ {
				child := n.Child(i).Aug.(*signature)
				sig.f.OrInPlace(child.f)
				sig.d.OrInPlace(child.d)
			}
		}
		n.Aug = sig
	})
}

// leafKeys extracts a leaf's entry keys into one backing array and sorts
// them by (source, gene). Gene labels are unique within a matrix, so
// every key is distinct and the order is total.
func leafKeys(n *rstar.Node) LeafKeys {
	m := n.NumEntries()
	buf := make([]int32, 3*m)
	k := LeafKeys{Source: buf[:m:m], Gene: buf[m : 2*m : 2*m], Pos: buf[2*m:]}
	for i := 0; i < m; i++ {
		it := n.Item(i)
		source, _ := UnpackRef(it.Ref)
		k.Source[i] = int32(source)
		k.Gene[i] = int32(it.Point[len(it.Point)-1])
		k.Pos[i] = int32(i)
	}
	sort.Sort(leafKeyOrder(k))
	return k
}

// leafKeyOrder sorts LeafKeys by (source, gene).
type leafKeyOrder LeafKeys

func (o leafKeyOrder) Len() int { return len(o.Pos) }
func (o leafKeyOrder) Less(i, j int) bool {
	if o.Source[i] != o.Source[j] {
		return o.Source[i] < o.Source[j]
	}
	return o.Gene[i] < o.Gene[j]
}
func (o leafKeyOrder) Swap(i, j int) {
	o.Source[i], o.Source[j] = o.Source[j], o.Source[i]
	o.Gene[i], o.Gene[j] = o.Gene[j], o.Gene[i]
	o.Pos[i], o.Pos[j] = o.Pos[j], o.Pos[i]
}

// DB returns the underlying database.
func (x *Index) DB() *gene.Database { return x.db }

// Options returns the (defaulted) construction options.
func (x *Index) Options() Options { return x.opts }

// D returns the pivot count per matrix.
func (x *Index) D() int { return x.opts.D }

// Bits returns the signature width B.
func (x *Index) Bits() int { return x.opts.Bits }

// Tree exposes the R*-tree for traversal.
func (x *Index) Tree() *rstar.Tree { return x.tree }

// Embedding returns the pivot embedding of the matrix with the given data
// source ID, or nil.
func (x *Index) Embedding(source int) *pivot.Embedding { return x.embeddings[source] }

// Inverted returns the inverted bit-vector file IF.
func (x *Index) Inverted() *bitvec.InvertedFile { return x.inverted }

// Accountant returns the I/O accountant shared by index and heap pages.
// It is the allocation namespace and the construction-time counter; query
// paths account I/O through per-query Readers (NewReader) instead, so
// concurrent queries never share a mutable counter.
func (x *Index) Accountant() *pagestore.Accountant { return x.acc }

// NewReader returns a fresh per-query I/O reader over the index's page
// namespace. Each reader starts with a cold private buffer pool of the
// configured capacity, preserving the per-query I/O-cost metric of
// Section 6.1 under concurrency.
func (x *Index) NewReader() *pagestore.Reader { return x.acc.NewReader() }

// Stats returns construction statistics.
func (x *Index) Stats() BuildStats { return x.stats }

// NodeSignature returns the V_f/V_d signatures of a tree node.
func (x *Index) NodeSignature(n *rstar.Node) (f, d *bitvec.Vector) {
	sig := n.Aug.(*signature)
	return sig.f, sig.d
}

// LeafKeys returns the sorted entry keys of leaf n (empty for internal
// nodes). They are rebuilt with the signatures on Build, Load and every
// AddMatrix/RemoveMatrix.
func (x *Index) LeafKeys(n *rstar.Node) LeafKeys {
	return n.Aug.(*signature).keys
}

// TouchNode charges one read of node n to the shared accountant.
func (x *Index) TouchNode(n *rstar.Node) { rstar.TouchNode(x.acc, n) }

// TouchNodeTo charges one read of node n to the given toucher (typically a
// per-query reader).
func (x *Index) TouchNodeTo(to pagestore.Toucher, n *rstar.Node) { rstar.TouchNode(to, n) }

// FetchStdColumn reads the standardized feature vector of column col of
// the given source from the simulated heap file — real byte movement that
// is charged as page I/O — appending the decoded values to dst and
// returning the result. The charge goes to the shared accountant; query
// paths use FetchStdColumnTo with a per-query reader.
func (x *Index) FetchStdColumn(source, col int, dst []float64) ([]float64, error) {
	return x.FetchStdColumnTo(x.acc, source, col, dst)
}

// FetchStdColumnTo is FetchStdColumn with the page charges billed to an
// explicit toucher. It decodes straight from the immutable heap bytes, so
// with a dst of sufficient capacity it does not allocate. Concurrent calls
// with distinct touchers are safe while the index is not being mutated.
func (x *Index) FetchStdColumnTo(to pagestore.Toucher, source, col int, dst []float64) ([]float64, error) {
	h, ok := x.heap[source]
	if !ok {
		return nil, fmt.Errorf("index: source %d not in heap", source)
	}
	raw, err := x.store.ViewTo(to, h.first, col*h.colBytes, h.colBytes)
	if err != nil {
		return nil, fmt.Errorf("index: fetching column %d of source %d: %w", col, source, err)
	}
	l := h.colBytes / 8
	if cap(dst) < l {
		dst = make([]float64, l)
	}
	dst = dst[:l]
	for i := range dst {
		dst[i] = getFloat64(raw[8*i:])
	}
	return dst, nil
}

// ChargeColumnRead charges the heap-page accesses needed to read column
// col of the matrix from the given source during refinement, without
// materializing the bytes (used by engines that keep vectors in memory).
func (x *Index) ChargeColumnRead(source, col int) {
	h, ok := x.heap[source]
	if !ok {
		return
	}
	ps := x.acc.PageSize()
	startByte := col * h.colBytes
	endByte := startByte + h.colBytes
	firstPage := h.first + pagestore.PageID(startByte/ps)
	lastPage := h.first + pagestore.PageID((endByte-1)/ps)
	x.acc.TouchRange(firstPage, int(lastPage-firstPage)+1)
}

// IndexPrunable implements Lemma 6 on a pair of node MBRs: given that node
// ea may contain the query-side gene Xs and node eb the partner gene Xt,
// the pair is prunable when some pivot dimension w satisfies
//
//	E_by^+[w] ≤ γ · ( D_lb − E_ax^+[w] ),
//
// where D_lb generalizes the paper's max_r(E_bx^-[r] − E_ax^+[r]) to the
// coordinate-gap lower bound on the pairwise distance (and, for the
// default two-sided measure, on the |cor|-equivalent distance using the
// coordinate-sum upper bound). The condition is checked in both
// randomization directions; a pruned pair has ub_P ≤ γ for every contained
// same-source (Xs, Xt) pair, so no true edge is lost.
func IndexPrunable(ea, eb rstar.Rect, d int, gamma float64, oneSided bool) bool {
	// Lower bound on dist(Xs, Xt) valid for every pair: per-coordinate
	// interval gap, maximized over pivot coordinates.
	lbd := 0.0
	for r := 0; r < d; r++ {
		gap := eb.Min[2*r] - ea.Max[2*r]
		if g2 := ea.Min[2*r] - eb.Max[2*r]; g2 > gap {
			gap = g2
		}
		if gap > lbd {
			lbd = gap
		}
	}
	dlb := lbd
	if !oneSided {
		ubd := math.Inf(1)
		for r := 0; r < d; r++ {
			if v := ea.Max[2*r] + eb.Max[2*r]; v < ubd {
				ubd = v
			}
		}
		alt2 := 4 - ubd*ubd
		if alt2 < 0 {
			alt2 = 0
		}
		if alt := math.Sqrt(alt2); alt < dlb {
			dlb = alt
		}
	}
	for w := 0; w < d; w++ {
		if eb.Max[2*w+1] <= gamma*(dlb-ea.Max[2*w]) {
			return true
		}
		if ea.Max[2*w+1] <= gamma*(dlb-eb.Max[2*w]) {
			return true
		}
	}
	return false
}

// PointUpperBound computes the pivot-based probability upper bound from
// two embedded (2d+1)-dimensional leaf points of the same data source.
// It is pivot.UpperBoundCoords read in place from the interleaved
// (x[r], y[r]) = (p[2r], p[2r+1]) layout, with the same arithmetic in the
// same order, so the two agree bit for bit; it allocates nothing, as it
// runs once per checked point pair.
func PointUpperBound(ps, pt []float64, d int, oneSided bool) float64 {
	ps, pt = ps[:2*d], pt[:2*d]
	// pivot.EffectiveDistanceLB over the x coordinates.
	dlb := 0.0
	for r := 0; r < 2*d; r += 2 {
		if v := math.Abs(ps[r] - pt[r]); v > dlb {
			dlb = v
		}
	}
	if !oneSided {
		ubd := math.Inf(1)
		for r := 0; r < 2*d; r += 2 {
			if v := ps[r] + pt[r]; v < ubd {
				ubd = v
			}
		}
		alt2 := 4 - ubd*ubd
		if alt2 < 0 {
			alt2 = 0
		}
		if alt := math.Sqrt(alt2); alt < dlb {
			dlb = alt
		}
	}
	ub := 1.0
	for w := 0; w < 2*d; w += 2 {
		if c := dlb - ps[w]; c > 0 {
			if b := pt[w+1] / c; b < ub {
				ub = b
			}
		}
		if c := dlb - pt[w]; c > 0 {
			if b := ps[w+1] / c; b < ub {
				ub = b
			}
		}
	}
	if ub < 0 {
		ub = 0
	}
	return ub
}
